"""Run one influx CLI command inside this fresh interpreter and write what
happened as one JSON file.

    python3 perfbench/traced.py --out RESULT.json [--trace RUN_ID] -- ARGV...

The import of `influx.cli` is timed first, before anything else loads
numpy.  With `--trace`, every public function of the layer modules is
wrapped (see spans.py) before `influx.cli.main(ARGV)` runs; the spans are
written once, after it returns.  The report goes to the JSON file, not to
stdout.
"""

import argparse
import contextlib
import io
import json
import time
from dataclasses import asdict


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", metavar="RUN_ID")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    import influx.cli

    import_s = time.perf_counter() - start
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(args.trace)
        spans.install(recorder)
    report = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(report):
        code = influx.cli.main(argv)
    main_s = time.perf_counter() - start
    result = {
        "code": code,
        "import_s": import_s,
        "main_s": main_s,
        "report": report.getvalue(),
        "spans": [asdict(s) for s in recorder.spans] if recorder else None,
        "counts": recorder.counts if recorder else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
