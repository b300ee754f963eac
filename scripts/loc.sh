#!/bin/sh
# Non-test Go line count of the program: physical lines (comments and
# blanks included) of every .go file that is not a _test.go file, over the
# whole tree and over internal/ccl + internal/core with their subpackages.
# perfbench/ (the benchmark, its own module) and build output under
# .bench_build/ are not part of the program. Run from the repo root:
#
#	scripts/loc.sh
set -eu

count() {
	find "$@" -name '*.go' ! -name '*_test.go' \
		! -path './perfbench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
}

echo "total    $(count .)"
echo "ccl+core $(count internal/ccl internal/core)"
