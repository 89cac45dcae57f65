#!/usr/bin/env bash
# Build the stack benchmark from source and run one workload:
#
#   bash stackbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the run writes stays under the
# root: the dune build in _build/, working state and traces in .stackbench/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib/iset ] || [ ! -f stackbench/dune ]; then
  echo "stackbench: run from the repository root (dune-project, lib/ and stackbench/ are needed)" >&2
  exit 2
fi

root=$(pwd)
mkdir -p .stackbench/tmp
# temporary files (the native engine's kernel builds) stay in the checkout
export TMPDIR="$root/.stackbench/tmp"

dune build --root . --cache=disabled ./stackbench/stackbench.exe 1>&2

commit=none
if [ -d .git ]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo none)
fi

exec ./_build/default/stackbench/stackbench.exe \
  --host-cores "$(nproc)" --commit "$commit" "$@"
