// The benchmark's workloads; each returns the run's result record.
#pragma once

#include "common.h"

namespace perfbench {

[[nodiscard]] Report run_paper_batch(const Args& args);
[[nodiscard]] Report run_wide_keys(const Args& args);
[[nodiscard]] Report run_serving(const Args& args);

}  // namespace perfbench
