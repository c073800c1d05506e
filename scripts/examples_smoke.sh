#!/usr/bin/env bash
# examples_smoke.sh — build and run every examples/* program from the
# repo root. Each must exit 0; examples/dynamic must also name the
# task its admission control rejects (misses: [greedy]), so a
# rejection that names no task fails the smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/" ./examples/...

for dir in examples/*/; do
  name=$(basename "$dir")
  if ! "$tmp/$name" > "$tmp/$name.out" 2>&1; then
    cat "$tmp/$name.out" >&2
    echo "examples-smoke: examples/$name failed" >&2
    exit 1
  fi
  echo "examples-smoke: examples/$name ok"
done

if ! grep -qF 'misses: [greedy]' "$tmp/dynamic.out"; then
  cat "$tmp/dynamic.out" >&2
  echo "examples-smoke: examples/dynamic must report misses: [greedy]" >&2
  exit 1
fi
