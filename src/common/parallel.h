#pragma once

#include <cstddef>
#include <functional>

namespace lfbs {

/// Runs task(0) … task(n - 1) on the process's worker pool and returns once
/// every one has ended. The calling thread runs tasks of its own call too,
/// so calls from several threads at once, or from inside a task, never
/// deadlock; with no helper threads every task runs inline on the caller.
///
/// The pool is made on first use, with one helper per CPU this process may
/// run on (sched_getaffinity, else hardware_concurrency) less the caller:
/// under `taskset -c 0` it has none. Idle helpers block. A pool belongs to
/// the process that made it; a forked child that calls this makes its own.
/// fork() first joins the helpers (they finish the tasks they hold), and
/// the parent's next call starts them again.
///
/// Tasks run in any order, on any thread. If any throw, the exception of the
/// lowest index that threw is rethrown here after every task has ended.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& task);

}  // namespace lfbs
