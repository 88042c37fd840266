"""Run one curvedim command in this fresh process and record what it cost.

Usage: python3 child.py SPAWN_CLOCK RESULT_JSON TRACE SRC_DIR -- CLI_ARGS...

SPAWN_CLOCK is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` spans interpreter start-up and the import of
``curvedim.cli``. Nothing but ``sys`` and ``time`` is imported first.
With no CLI_ARGS only ``setup_s`` is recorded. With TRACE=1 the package's
layers are wrapped after the import and the spans go to
``<RESULT_JSON>.spans.json``. The exit code is the command's.
"""

import sys
import time


def main() -> int:
    spawn_clock, result_path, traced, src = sys.argv[1:5]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    import curvedim.cli as cli

    setup_s = time.monotonic() - float(spawn_clock)

    import json
    import os
    import resource

    if not argv:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    import environment

    recorder = None
    if traced == "1":
        import spans

        recorder = spans.Recorder()
        missing = spans.install(recorder)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    if recorder is not None:
        root = recorder.begin("cli.main")
        try:
            code = cli.main(argv)
        finally:
            recorder.end(root)
    else:
        code = cli.main(argv)
    run_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "exit_code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "module_file": os.path.abspath(cli.__file__),
        "environment": environment.record(),
    }
    if recorder is not None:
        with open(result_path + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({**recorder.dump(), "missing": missing}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
