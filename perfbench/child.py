"""One traced CLI job: python3 perfbench/child.py SPANS_JSON CLI_ARGS...

Imports dgdescent.cli, installs the span wrappers in this process, runs
`cli.main` on the remaining arguments and writes the spans and counters
to SPANS_JSON before exiting with the CLI's exit code.  The parent
benchmark grafts the spans under its own span for the job.
"""

import sys

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = spans.Tracer()
    sid = tr.open(tr.name_id("cli.import"))
    import dgdescent.cli
    tr.close(sid)
    spans.install(tr)
    code = 1
    sid = tr.open(tr.name_id("cli.main"))
    try:
        code = dgdescent.cli.main(argv)
    finally:
        tr.close(sid)
        tr.dump(out_path, {"counters": tr.counter_snapshot()})
    return code


if __name__ == "__main__":
    sys.exit(main())
