// Shape type shared by the tensor code.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace fedcl::tensor {

using Shape = std::vector<std::int64_t>;

inline std::int64_t shape_numel(const Shape& s) {
  std::int64_t n = 1;
  for (std::int64_t d : s) n *= d;
  return n;
}

inline std::string shape_str(const Shape& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(s[i]);
  }
  out += "]";
  return out;
}

}  // namespace fedcl::tensor
