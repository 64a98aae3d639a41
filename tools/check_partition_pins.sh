#!/usr/bin/env bash
# Byte pin for the text load path: runs `partition_tool partition` on two
# inputs and compares the sha256 of each partition file it writes against
# a recorded value. Parsing, id compaction and conversion are all on this
# path, so any change to them that alters a single output byte fails here.
#
#   tools/check_partition_pins.sh BUILD_DIR
#
# Inputs:
#  * ws: a 5000-vertex Watts-Strogatz graph from `partition_tool generate`
#    (dense ids, LF line ends), k=16;
#  * sparse: a hand-written list with sparse ids up to 2^40, duplicate and
#    reciprocal edges, self-loops, '#'/'%' comments, blank lines, tabs,
#    leading blanks, a third column, CRLF line ends and no final newline,
#    k=4.
# The values were recorded before the block reader, the dense-id remap and
# the counting-sort conversion replaced the getline/sort implementations.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
tool="$1/partition_tool"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

"${tool}" generate --out="${work}/ws.txt" --vertices=5000 --seed=7 \
  > /dev/null
printf '%s' \
  "# sparse ids, duplicates, self-loops, comments and CRLF"$'\r\n' \
  "% a matrix-market style comment"$'\r\n' \
  $'\r\n' \
  "1000 20"$'\r\n' \
  "20 1000"$'\r\n' \
  "1000 20"$'\r\n' \
  "77 77"$'\r\n' \
  "  1099511627776 20"$'\r\n' \
  $'5\t1000\r\n' \
  "5 77 3"$'\r\n' \
  "77 300"$'\r\n' \
  "300 5"$'\r\n' \
  "300 5"$'\r\n' \
  "41 300"$'\r\n' \
  "41 42"$'\r\n' \
  "42 43"$'\r\n' \
  "43 41"$'\r\n' \
  "43 1099511627776"$'\r\n' \
  "9000 41"$'\r\n' \
  "9000 9000"$'\r\n' \
  "9000 20"$'\r\n' \
  "# trailing comment"$'\r\n' \
  "20 43"$'\r\n' \
  "1000 9000"$'\r\n' \
  "5 42" \
  > "${work}/sparse.txt"

"${tool}" partition --input="${work}/ws.txt" --k=16 --seed=11 \
  --out="${work}/ws_parts.txt" > /dev/null
"${tool}" partition --input="${work}/sparse.txt" --k=4 --seed=11 \
  --out="${work}/sparse_parts.txt" > /dev/null

status=0
check() {
  local actual
  actual="$(sha256sum "$1" | cut -d' ' -f1)"
  if [[ "${actual}" != "$2" ]]; then
    echo "check_partition_pins: $(basename "$1") sha256 ${actual}," \
      "pinned $2" >&2
    status=1
  fi
}
check "${work}/ws_parts.txt" 22e5a92567fd7f6582341979aedcd946544446fbf97df833b0f48452a9c93bbc
check "${work}/sparse_parts.txt" d9850d65794a2b2527effb6de840fd74de2a993076cd7966e6007d9618cb9656
if [[ "${status}" -eq 0 ]]; then
  echo "check_partition_pins: both partition files match their pins"
fi
exit "${status}"
