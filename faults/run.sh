#!/usr/bin/env bash
# The fault table: every faults/NNN-<name>.patch is a small deliberate bug.
# For each one this script applies the patch to a scratch copy of the tree,
# builds release with `-C debug-assertions=on` (so the memo and due-order
# asserts are live), runs the test binaries its header names and records
# whether any of them fails. It prints a caught / missed table.
#
# Usage: faults/run.sh [--tree DIR] [--work DIR] [--also CATCHER]... [PATCH]...
#
#   --tree DIR      checkout to copy (default: the one holding this script)
#   --work DIR      scratch directory for the copy, build and logs
#                   (default: ${TMPDIR:-/tmp}/gpumem-faults)
#   --also CATCHER  run this catcher for every patch, on top of its own
#   PATCH...        patches to run (default: every faults/*.patch)
#
# A patch header names its catchers and what the table expects:
#
#   # catch: gpumem-cache lib              cargo test -p gpumem-cache --lib
#   # catch: gpumem-repro differential     cargo test -p gpumem-repro --test differential
#   # catch: repro run --quick nw          the `repro` binary with these arguments
#   # expect: caught                       or `missed`, with the reason on the line
#
# A catcher catches a fault when it exits non-zero (a failed test, a
# tripped debug assertion, or a hang cut by the 300 s per-catcher
# timeout). Every catcher must pass on the unpatched copy first.
#
# Exit status: 0 when every fault marked `expect: caught` is caught; 1 when
# one is missed, a patch no longer applies or a patched tree does not build,
# or a catcher fails without any fault applied; 2 on bad arguments.

set -uo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
tree="$(dirname "$here")"
work="${TMPDIR:-/tmp}/gpumem-faults"
also=()
patches=()
while [ $# -gt 0 ]; do
    case "$1" in
        --tree) tree="$(cd "$2" && pwd)" || exit 2; shift 2 ;;
        --work) work="$2"; shift 2 ;;
        --also) also+=("$2"); shift 2 ;;
        -*) echo "unknown option $1" >&2; exit 2 ;;
        *) patches+=("$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"); shift ;;
    esac
done
if [ ${#patches[@]} -eq 0 ]; then
    patches=("$here"/[0-9][0-9][0-9]-*.patch)
fi
# Every catcher finishes well inside a minute on 2 CPUs, so one still
# running after 300 s is hung.
timeout_s=300

copy="$work/tree"
logs="$work/logs"
export CARGO_TARGET_DIR="$work/target"
export RUSTFLAGS="-C debug-assertions=on"
mkdir -p "$work" "$logs"

echo "copying $tree to $copy" >&2
rm -rf "$copy"
mkdir -p "$copy"
# Extracted with fresh mtimes: a kept target dir may hold a build of a
# patched file whose original mtime is older, which cargo would reuse.
tar -C "$tree" --exclude=./.git --exclude='./target' --exclude='./benchmark' -cf - . \
    | tar -C "$copy" --touch -xf - || exit 1

catchers_of() {
    sed -n 's/^# catch: *//p' "$1"
    for c in "${also[@]+"${also[@]}"}"; do echo "$c"; done
}

# Builds what `catcher` runs; non-zero means the tree does not build.
build_catcher() {
    local words
    read -ra words <<<"$1"
    if [ "${words[0]}" = repro ]; then
        cargo build --release -q -p gpumem-bench
    elif [ "${words[1]}" = lib ]; then
        cargo test --release -q -p "${words[0]}" --lib --no-run
    else
        cargo test --release -q -p "${words[0]}" --test "${words[1]}" --no-run
    fi
}

# Runs `catcher`; its exit status is the verdict (non-zero = caught).
run_catcher() {
    local words
    read -ra words <<<"$1"
    if [ "${words[0]}" = repro ]; then
        timeout "$timeout_s" "$CARGO_TARGET_DIR/release/repro" "${words[@]:1}"
    elif [ "${words[1]}" = lib ]; then
        timeout "$timeout_s" cargo test --release -q -p "${words[0]}" --lib
    else
        timeout "$timeout_s" cargo test --release -q -p "${words[0]}" --test "${words[1]}"
    fi
}

label() { echo "$1" | tr ' /' '_-'; }

status=0
cd "$copy" || exit 1

# Every catcher must pass before any fault is applied, or "caught" means
# nothing.
mapfile -t all_catchers < <(for p in "${patches[@]}"; do catchers_of "$p"; done | sort -u)
for c in "${all_catchers[@]}"; do
    log="$logs/clean-$(label "$c").log"
    if ! { build_catcher "$c" && run_catcher "$c"; } >"$log" 2>&1; then
        echo "catcher \`$c\` fails on the unpatched tree (see $log)" >&2
        exit 1
    fi
done

rows=()
for p in "${patches[@]}"; do
    name="$(basename "$p" .patch)"
    expect="$(sed -n 's/^# expect: *\([a-z]*\).*/\1/p' "$p" | head -n1)"
    if ! git apply --check "$p" 2>"$logs/$name-apply.log"; then
        rows+=("$(printf '%-36s %-7s %-10s %s' "$name" "$expect" "NO-APPLY" "-")")
        status=1
        continue
    fi
    git apply "$p"
    caught=()
    result=missed
    mapfile -t cs < <(catchers_of "$p")
    for c in "${cs[@]}"; do
        log="$logs/$name-$(label "$c").log"
        if ! build_catcher "$c" >"$log" 2>&1; then
            result=NO-BUILD
            break
        fi
        run_catcher "$c" >>"$log" 2>&1
        code=$?
        if [ "$code" -eq 124 ]; then
            caught+=("$c(hang)")
        elif [ "$code" -ne 0 ]; then
            caught+=("$c")
        fi
    done
    git apply -R "$p"
    if [ "$result" = missed ] && [ ${#caught[@]} -gt 0 ]; then
        result=caught
    fi
    if [ "$result" = NO-BUILD ] || { [ "$expect" = caught ] && [ "$result" != caught ]; }; then
        status=1
    fi
    by="$(IFS=,; echo "${caught[*]+"${caught[*]}"}")"
    rows+=("$(printf '%-36s %-7s %-10s %s' "$name" "$expect" "$result" "${by:--}")")
done

printf '%-36s %-7s %-10s %s\n' fault expect result "caught by"
printf '%s\n' "${rows[@]}"
exit "$status"
