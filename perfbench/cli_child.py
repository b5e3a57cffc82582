"""One iplkit CLI command, started by the cli workload.

    cli_child.py RESULT_PATH [--trace] ARGS...   run `iplkit ARGS...`
    cli_child.py --import-only                   time `import iplkit`

The child runs iplkit.cli.main(ARGS) as `python -m iplkit ARGS` does, so
stdout, stderr and the exit code are the CLI's own.  It also times the
reference routine before and after importing iplkit and after the
command, so the speed correction samples the machine inside the process
as well as before and after it; with --trace it also wraps the CLI's
bindings and records spans.  Both go to RESULT_PATH.
"""

import json
import sys

import refclock


def main() -> int:
    if sys.argv[1] == "--import-only":
        _, _, corrected = refclock.timed(__import__, "iplkit")
        print(corrected)
        return 0
    result_path, args = sys.argv[1], sys.argv[2:]
    traced = args[:1] == ["--trace"]
    if traced:
        args = args[1:]
    refs = [refclock.reference_ns()]
    import iplkit.cli
    refs.append(refclock.reference_ns())
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.LIBRARY_SPECS + tracing.CLI_SPECS)
        tracer.begin_op()
    try:
        return iplkit.cli.main(args)
    finally:
        refs.append(refclock.reference_ns())
        result = {"refs": refs}
        if tracer is not None:
            tracer.end_op(1.0)
            result.update(tracer.dump_dict())
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
