#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build perf.exe and the mavr
# CLI from source in this checkout, then run perf.exe with every argument
# passed through.  Fails (non-zero, no result line) when the sources are
# not there to build.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet perfbench/perf.exe bin/mavr_cli.exe >&2
exec _build/default/perfbench/perf.exe --mavr _build/default/bin/mavr_cli.exe "$@"
