#!/usr/bin/env bash
# Linker audit: lists the out-of-line src/ functions that no shipped binary
# links. Builds the top-level project and perfbench/ at -O0 with one section
# per function, links every bench, example, the two serve binaries and
# perfbench with --gc-sections, and prints (demangled, sorted) every strong
# text symbol (nm type T) of a src/ library, testkit excluded, that none of
# those binaries defines. Header-inline and template code is weak and not
# listed. Exits non-zero when that list differs from scripts/unlinked_keep.txt,
# which names each function kept on purpose, one per line as
# `<demangled symbol>  # <reason>` ('#' lines and blank lines are ignored).
# Usage: scripts/audit_unlinked.sh <dir>   (build outputs go under <dir>)
set -euo pipefail
export LC_ALL=C
if [[ $# -ne 1 ]]; then
  echo "usage: $0 <dir>" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
dir="$(cd "$1" && pwd)"
keep="$root/scripts/unlinked_keep.txt"
jobs="$(nproc)"

configure=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)
cmake -S "$root" -B "$dir/top" "${configure[@]}" > /dev/null
cmake -S "$root/perfbench" -B "$dir/perfbench" "${configure[@]}" > /dev/null

names() {  # executable names declared in a CMakeLists.txt
  sed -n -e 's/^tinysdr_\(bench\|example\)(\([A-Za-z0-9_]*\)).*/\2/p' \
    -e 's/^add_executable(\([A-Za-z0-9_]*\) .*/\1/p' "$1"
}
mapfile -t benches < <(names "$root/bench/CMakeLists.txt")
mapfile -t examples < <(names "$root/examples/CMakeLists.txt")
cmake --build "$dir/top" -j"$jobs" --target "${benches[@]}" "${examples[@]}" \
  tinysdr_serve_daemon tinysdr_submit > /dev/null
cmake --build "$dir/perfbench" -j"$jobs" --target perfbench > /dev/null

binaries=("$dir/perfbench/perfbench" "$dir/top/src/serve/tinysdr_serve"
  "$dir/top/src/serve/tinysdr_submit")
for name in "${benches[@]}"; do binaries+=("$dir/top/bench/$name"); done
for name in "${examples[@]}"; do binaries+=("$dir/top/examples/$name"); done

libraries=()
while IFS= read -r lib; do
  [[ "$(basename "$lib")" == libtinysdr_testkit.a ]] || libraries+=("$lib")
done < <(find "$dir/top/src" -name 'libtinysdr_*.a' | sort)

nm --defined-only "${binaries[@]}" 2> /dev/null | awk 'NF == 3 { print $3 }' \
  | sort -u > "$dir/linked.txt"
nm --defined-only "${libraries[@]}" 2> /dev/null \
  | awk '$2 == "T" { print $3 }' | sort -u > "$dir/library.txt"
comm -23 "$dir/library.txt" "$dir/linked.txt" | c++filt | sort \
  > "$dir/unlinked.txt"

echo "audit: $(wc -l < "$dir/library.txt") src/ functions," \
  "$(wc -l < "$dir/unlinked.txt") linked by no binary:"
cat "$dir/unlinked.txt"

entries() { grep -v -e '^[[:space:]]*#' -e '^[[:space:]]*$' "$keep" || true; }
status=0
if entries | grep -v -e '[^[:space:]][[:space:]]*#[[:space:]]*[^[:space:]]' > /dev/null; then
  echo "audit: every entry of $keep needs a '# reason'" >&2
  status=1
fi
entries | sed 's/[[:space:]]*#.*$//' | sort > "$dir/keep.txt"
if ! diff -u --label unlinked_keep.txt --label audit "$dir/keep.txt" \
    "$dir/unlinked.txt"; then
  echo "audit: the unlinked functions differ from $keep" >&2
  status=1
fi
[[ "$status" == 0 ]] && echo "audit: OK"
exit "$status"
