// Shared helpers for the table/figure regeneration benches: consistent
// headers and paper-vs-measured annotation so every bench's output can be
// eyeballed against the original publication.
#pragma once

#include <cstdio>
#include <string>

#include "util/strings.h"

namespace vpna::bench {

inline void print_header(const char* experiment_id, const char* description) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", experiment_id, description);
  std::printf("==================================================================\n");
}

// One "paper said X, we measured Y" line.
inline void compare(const char* metric, const std::string& paper,
                    const std::string& measured) {
  std::printf("%-44s paper: %-18s measured: %s\n", metric, paper.c_str(),
              measured.c_str());
}

inline void note(const char* text) { std::printf("note: %s\n", text); }

}  // namespace vpna::bench
