#!/usr/bin/env bash
# Diff-mode clang-format gate. The tree was adopted without a wholesale
# reformat: files listed in tools/format_baseline.txt are exempt, every
# other .h/.cc/.cpp must be clang-format clean (.clang-format, Google
# style). Remove a file from the baseline after reformatting it to opt it
# into the gate permanently, and when deleting the file. A baseline entry
# that names a missing file fails the gate, also where clang-format is not
# installed.
#
# Usage: scripts/format_check.sh [--all] [--fix]
#   --all  check baselined files too (advisory sweep, never fails CI)
#   --fix  rewrite offending files in place instead of failing
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="tools/format_baseline.txt"
stale=0
while IFS= read -r file; do
  case "$file" in ''|'#'*) continue ;; esac
  if [[ ! -e "$file" ]]; then
    echo "format_check: $baseline names missing file $file"
    stale=1
  fi
done < "$baseline"
if [[ $stale -ne 0 ]]; then
  exit 1
fi

CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"
if ! command -v "$CLANG_FORMAT" >/dev/null 2>&1; then
  echo "format_check: $CLANG_FORMAT not found; skipping (the ccdb_lint and" \
       "compiler gates still run — install clang-format to enable this one)"
  exit 0
fi

check_all=0
fix=0
for arg in "$@"; do
  case "$arg" in
    --all) check_all=1 ;;
    --fix) fix=1 ;;
    *) echo "usage: scripts/format_check.sh [--all] [--fix]" >&2; exit 2 ;;
  esac
done

fail=0
checked=0
skipped=0
while IFS= read -r file; do
  case "$file" in */lint_fixtures/*) continue ;; esac
  if [[ $check_all -eq 0 ]] && grep -qxF "$file" "$baseline"; then
    skipped=$((skipped + 1))
    continue
  fi
  checked=$((checked + 1))
  if [[ $fix -eq 1 ]]; then
    "$CLANG_FORMAT" -i "$file"
  elif ! "$CLANG_FORMAT" --dry-run -Werror "$file" >/dev/null 2>&1; then
    echo "format_check: $file needs clang-format (see .clang-format)"
    fail=1
  fi
done < <(find src tests bench tools examples \
              -name '*.h' -o -name '*.cc' -o -name '*.cpp' | LC_ALL=C sort)

echo "format_check: $checked file(s) checked, $skipped baselined"
if [[ $fail -ne 0 && $check_all -eq 1 ]]; then
  echo "format_check: --all sweep found drift in baselined files (advisory)"
  exit 0
fi
exit $fail
