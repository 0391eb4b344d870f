#!/usr/bin/env sh
# Run `cargo test ARGS...` whose ARGS include a test-name filter, and fail
# when that filter selects no test. Plain `cargo test <filter>` passes
# silently on zero matches, so a CI step would keep passing after the
# tests it names are moved or renamed.
#
#   scripts/cargo-test-filtered.sh -q --release -p lqcd-core tuning::
set -eu
selected=$(cargo test "$@" -- --list --format terse | grep -c ': test$' || true)
if [ "$selected" -eq 0 ]; then
    echo "error: 'cargo test $*' selects no test" >&2
    exit 1
fi
echo "'cargo test $*' selects $selected tests"
cargo test "$@"
