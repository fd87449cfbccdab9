// Shared helpers for the experiment harnesses: consistent banner /
// row printing so every binary emits both a human-readable table and
// machine-readable CSV rows (prefixed "csv,") that plotting scripts can
// grep out.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace sbk::bench {

inline void banner(const std::string& experiment, const std::string& what) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("==================================================================\n");
}

inline void csv_row(const std::vector<std::string>& fields) {
  std::printf("csv");
  for (const std::string& f : fields) std::printf(",%s", f.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

inline std::string fmt_pct(double fraction, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

}  // namespace sbk::bench
