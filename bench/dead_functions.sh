#!/usr/bin/env bash
# Fail on library functions that no binary keeps.
#
# Builds the main tree and the bench/e2e project at -O0, so no caller
# is inlined away, with -ffunction-sections and -Wl,--gc-sections, so
# the linker drops every function no entry point reaches. It then
# lists the locsim:: functions (nm T and W symbols) that the
# liblocsim_*.a archives define, and fails on any that no linked ELF
# (tests, harnesses, examples, locsim_bench) still defines.
#
# What the scan cannot see:
#  - inline and template functions that no translation unit emits:
#    they leave no symbol in any archive, so they are never listed;
#  - functions that only tests call: a test binary keeps them, so they
#    count as live.
#
# Usage: bench/dead_functions.sh [BUILD_ROOT]
#   BUILD_ROOT defaults to build-deadcode/ in the repository; the two
#   builds go to BUILD_ROOT/main and BUILD_ROOT/e2e. Exits 0 when every
#   library function is kept, 1 (listing the rest) otherwise.

set -euo pipefail
export LC_ALL=C

repo=$(cd "$(dirname "$0")/.." && pwd)
root=${1:-$repo/build-deadcode}
jobs=${JOBS:-$(nproc)}

configure_and_build() { # source dir, build dir
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
    cmake --build "$2" -j "$jobs" > /dev/null
}

configure_and_build "$repo" "$root/main"
configure_and_build "$repo/bench/e2e" "$root/e2e"

# Demangled locsim:: names of the defined text symbols (T, or W for
# emitted inline and template functions) in the given objects.
functions() {
    nm -C --defined-only "$@" 2> /dev/null |
        awk '$2 == "T" || $2 == "W" { $1 = ""; $2 = ""; print substr($0, 3) }' |
        grep '^locsim::' | sort -u || true
}

is_elf() {
    [ "$(head -c 4 "$1" | tail -c 3)" = "ELF" ]
}

mapfile -t archives < <(find "$root/main" -name 'liblocsim_*.a' | sort)
mapfile -t binaries < <(
    find "$root/main" "$root/e2e" -path '*/CMakeFiles' -prune -o \
        -type f -perm -u+x -print | sort |
        while read -r f; do is_elf "$f" && echo "$f"; done)

if [ "${#archives[@]}" -eq 0 ] || [ "${#binaries[@]}" -eq 0 ]; then
    echo "dead_functions: found ${#archives[@]} archives and" \
         "${#binaries[@]} binaries under $root" >&2
    exit 1
fi

dead=$(comm -23 <(functions "${archives[@]}") \
                <(functions "${binaries[@]}"))

echo "dead_functions: ${#archives[@]} archives, ${#binaries[@]} binaries"
if [ -n "$dead" ]; then
    echo "library functions that no binary keeps:"
    echo "$dead" | sed 's/^/  /'
    exit 1
fi
echo "every library function is kept by some binary"
