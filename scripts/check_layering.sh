#!/bin/sh
# Layering gate. The source tree is layered
#
#   sim <- vm/vfs <- kernel <- net <- core <- apps <- cluster
#
# and a file may only depend on its own layer and the layers to its left. This
# script fails when a file under src/ includes a header from a higher layer (vm
# and vfs may not include each other either), or when a file below apps/ (below
# cluster/) opens, forward-declares, or names the pmig::apps (pmig::cluster)
# namespace. Run by ctest as layering_check.
#
# Usage: scripts/check_layering.sh [SRC_DIR]   (default: the repository's src/)
set -eu

src=${1:-"$(dirname "$0")/../src"}

rank() {
  case "$1" in
    sim) echo 0 ;;
    vm | vfs) echo 1 ;;
    kernel) echo 2 ;;
    net) echo 3 ;;
    core) echo 4 ;;
    apps) echo 5 ;;
    cluster) echo 6 ;;
    *) echo -1 ;;
  esac
}

status=0
fail() {
  echo "layering: $1"
  status=1
}

for dir in "$src"/*/; do
  layer=$(basename "$dir")
  own=$(rank "$layer")
  if [ "$own" -lt 0 ]; then
    fail "src/$layer is not in the layer order"
    continue
  fi
  for file in "$dir"*; do
    [ -f "$file" ] || continue
    rel="src/$layer/$(basename "$file")"
    deps=$(sed -n 's|^[[:space:]]*#[[:space:]]*include[[:space:]]*"src/\([a-z_]*\)/.*|\1|p' "$file" | sort -u)
    for dep in $deps; do
      theirs=$(rank "$dep")
      if [ "$theirs" -gt "$own" ] || { [ "$theirs" -eq "$own" ] && [ "$dep" != "$layer" ]; }; then
        fail "$rel includes a src/$dep/ header"
      fi
    done
    for ns in apps cluster; do
      if [ "$own" -lt "$(rank "$ns")" ] &&
        grep -Eq "namespace[[:space:]]+(pmig::)?$ns([^A-Za-z0-9_]|\$)|(^|[^A-Za-z0-9_])$ns::" "$file"; then
        fail "$rel names namespace pmig::$ns"
      fi
    done
  done
done

if [ "$status" -eq 0 ]; then echo "layering: ok"; fi
exit "$status"
