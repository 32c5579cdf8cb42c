#!/usr/bin/env bash
# loc.sh — print the non-test Go line counts ROADMAP and CHANGES track:
# every .go file except _test.go files, the separately built benchmark/
# module, and analyzer fixtures under testdata/, in total and for
# internal/core.
#
#   ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.go' ! -name '*_test.go' \
    -not -path './benchmark/*' -not -path '*/testdata/*' -not -path './.*' -print0 |
    xargs -0 cat | wc -l | tr -d ' '
}

echo "non-test Go lines: $(count .)"
echo "internal/core:     $(count ./internal/core)"
