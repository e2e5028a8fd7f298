#!/usr/bin/env bash
# Static-analysis entry point — identical locally and in CI.
#
#   scripts/lint.sh [--build-dir DIR] [--update-baselines]
#
# Runs, in order:
#   1. netqos-analyze (tools/netqos_analyze, the C++ engine) from the
#      build tree: all eight rules R1-R8 over src/, gated against
#      tools/netqos_lint/analyze_baseline.txt (committed at zero
#      entries), with SARIF written to $BUILD_DIR/lint/ and a result
#      cache for warm incremental runs. Exits 2, naming the target to
#      build, when the binary is missing.
#   2. clang-tidy with the repo .clang-tidy profile over src/, gated
#      diff-aware against tools/netqos_lint/clang_tidy_baseline.txt.
#      Skipped with a notice when clang-tidy is not installed (the
#      container image has no LLVM tooling; the CI static-analysis job
#      installs it).
#
# Findings are also written to $BUILD_DIR/lint/ so CI can upload them.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${NETQOS_BUILD_DIR:-build}"
UPDATE_BASELINES=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --update-baselines) UPDATE_BASELINES=1; shift ;;
    *) echo "usage: scripts/lint.sh [--build-dir DIR] [--update-baselines]" >&2
       exit 2 ;;
  esac
done

ANALYZE_BASELINE=tools/netqos_lint/analyze_baseline.txt
TIDY_BASELINE=tools/netqos_lint/clang_tidy_baseline.txt
ANALYZE_BIN="$BUILD_DIR/tools/netqos_analyze/netqos_analyze"
OUT_DIR="$BUILD_DIR/lint"

if [[ ! -x "$ANALYZE_BIN" ]]; then
  echo "scripts/lint.sh: error: no netqos-analyze binary at $ANALYZE_BIN;" \
       "build it with: cmake --build $BUILD_DIR --target netqos_analyze" >&2
  exit 2
fi
mkdir -p "$OUT_DIR"

status=0

# ---- 1. netqos-analyze (C++ engine, R1-R8) -------------------------------
if [[ "$UPDATE_BASELINES" == 1 ]]; then
  "$ANALYZE_BIN" --root . --baseline "$ANALYZE_BASELINE" \
      --update-baseline src
fi
echo "== netqos-analyze (R1-R8)"
if "$ANALYZE_BIN" --root . --baseline "$ANALYZE_BASELINE" \
    --sarif "$OUT_DIR/netqos_analyze.sarif" \
    --cache "$OUT_DIR/netqos_analyze.cache" src \
    | tee "$OUT_DIR/netqos_analyze.txt"; then
  echo "   netqos-analyze: clean"
else
  status=1
fi

# ---- 2. clang-tidy -------------------------------------------------------
TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "== clang-tidy: not installed, skipped (install clang-tidy to enable)"
  exit "$status"
fi
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "== clang-tidy: no $BUILD_DIR/compile_commands.json, skipped" \
       "(configure with cmake first)" >&2
  exit "$status"
fi

echo "== clang-tidy ($($TIDY --version | head -n1 | xargs))"
mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
RAW="$OUT_DIR/clang_tidy_raw.txt"
# clang-tidy exits nonzero on findings; capture output, gate below.
"$TIDY" -p "$BUILD_DIR" --quiet "${SOURCES[@]}" > "$RAW" 2>/dev/null || true

# Normalize to "path:line check" pairs relative to the repo root.
FINDINGS="$OUT_DIR/clang_tidy_findings.txt"
sed -nE "s#^$(pwd)/##; s#^([^ :]+):([0-9]+):[0-9]+: (warning|error): .* \[([a-z0-9.,-]+)\]\$#\1 \4#p" \
  "$RAW" | sort -u > "$FINDINGS"

if [[ "$UPDATE_BASELINES" == 1 ]]; then
  {
    echo "# clang-tidy baseline: known findings as 'path check-name'."
    echo "# Regenerate with: scripts/lint.sh --update-baselines"
    cat "$FINDINGS"
  } > "$TIDY_BASELINE"
  echo "   wrote $(wc -l < "$FINDINGS") finding(s) to $TIDY_BASELINE"
fi

NEW="$OUT_DIR/clang_tidy_new.txt"
grep -v '^#' "$TIDY_BASELINE" 2>/dev/null | sort -u > "$OUT_DIR/tidy_base.txt" || true
comm -23 "$FINDINGS" "$OUT_DIR/tidy_base.txt" > "$NEW"

if [[ -s "$NEW" ]]; then
  echo "   clang-tidy: $(wc -l < "$NEW") new finding(s) not in baseline:"
  # Show full diagnostics for the new findings only.
  while read -r file check; do
    grep -F "[$check]" "$RAW" | grep -F "$file" || true
  done < "$NEW"
  status=1
else
  echo "   clang-tidy: clean ($(wc -l < "$FINDINGS") finding(s), all baselined)"
fi

exit "$status"
