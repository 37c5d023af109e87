// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <unistd.h>

#include "tensor/tensor.h"

namespace alfi::test {

/// Temporary directory removed when the fixture object goes out of scope.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("alfi_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// The whole content of the file at `path`; a missing file fails the
/// calling test and reads as empty.
inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Central-difference numerical gradient of scalar(x) at x, for gradient
/// checking layer backward passes.
inline float numerical_gradient(const std::function<float(float)>& scalar, float x,
                                float eps = 1e-3f) {
  return (scalar(x + eps) - scalar(x - eps)) / (2.0f * eps);
}

/// Asserts |a - b| <= atol + rtol * |b| elementwise-style for scalars.
inline void expect_close(float a, float b, float atol = 1e-4f, float rtol = 1e-3f,
                         const std::string& what = "") {
  EXPECT_LE(std::fabs(a - b), atol + rtol * std::fabs(b)) << what << " a=" << a
                                                          << " b=" << b;
}

}  // namespace alfi::test
