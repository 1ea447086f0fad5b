#!/usr/bin/env bash
# Writes every CLI artifact the workflow compares byte for byte, each with
# its manifest, using one uqeval source tree:
#
#   bash .github/write-artifacts.sh SRC_DIR OUT_DIR
#
# Every dataset kind and split, each oracle command, non-default scoring
# conventions and the smallest threshold count (2), the smallest scoring
# chunks of `predict_chunks` (1, 2 and 49 rows; 49 is a size where the
# sparsification grid floors some removal counts below k), the 200003-row
# oracle layout (48 scoring chunks of 4096 rows, the last merged to 7491), the
# sparsification curve at exactly one block of CURVE_BLOCK_ROWS (4096
# rows) and at one block plus a row,
# density grids, predicted by forward chunks of x values (4096 each, the
# remainder merged into the last) in blocks of 4096 // rows y values, and
# formatted in slices of CSV_BLOCK_ROWS // ny x values (at least one), a
# row wider than 2^14 cells in pieces of 2^14: 300 x 200 in one chunk with
# y blocks of 13 and text slices of 81 x values and a short fourth of 57, a
# tall 16389 x 2 in chunks of 4096 and a merged 4101 and text slices of
# 8192 and a short third of 5, a taller 65539 x 3 (past 3 x 2^14 rows,
# formatted in-process) in a merged last chunk of 4099 and text slices of
# 5461 and a short last one of 7, and a wide 3 x 16389 in y blocks of 1365
# and each row's text in a piece of 16384 cells and one of 5; and a trained
# ensemble with each command that takes it, at 135169 rows too (33 scoring
# chunks, the last a merged 4097-row one, which `forward` runs as forward
# blocks of 2048 and 2049 rows), at 6143 rows (one scoring chunk, which
# `forward` runs as blocks of 2048 and 4095 rows, written at full precision
# by `sparsify`), and on a 12289 x 3 grid (chunks of 4096, 4096 and 4097 x
# values); `forward` runs every member of a chunk on one pair of work buffers.
# A sparsification curve (262145 x 3 cells) and a dataset (393217 x 2) are
# one row past POOL_MIN_CELLS (3 x 2^18 cells), a 513 x 512 density grid
# (787968 cells) one x value past it and a wide 2 x 131073 one (786438
# cells, each row in eight pieces of 2^14 and one of a single cell) one y
# value past it, so with more than one available core their chunks of
# text are formatted in worker processes, and on one core in-process; the
# workflow diffs a one-core run against the others.  A
# second ensemble trains on 1024 rows, 8 batches per epoch, so its bytes
# cover 800 optimizer steps per member.  The bias
# runs score their replicates in worker processes, except `--replicates 1`,
# which scores in-process; the homoscedastic stability CSV holds `nan` cells.
# Each default a command resolves is recorded in its manifest: `generate`
# runs at its default --n for both splits, and `density-grid` with default
# and with explicit --x-min/--x-max.  One `eval` writes its report to stdout
# and its manifest to stderr, both redirected to files.  Normal CDFs reach
# every branch of `ndtr`: a third ensemble, trained on 1024 epistemic rows
# and evaluated on homoscedastic data, scores 1176 of its 4099 rows in the
# far tail (standardised residual below -8 sqrt 2, a PIT under 1e-28), and
# the multimodal oracle's component CDFs in `eval-multimodal-*` reach the
# underflow cut (|residual| >= 37.68) 897 times: 457 exact zeros and 440
# exact ones.  No single-Gaussian PIT here reaches the cut (no ensemble
# these recipes train is that confident), so no CE count at level 0 holds
# an exact-zero PIT; inside a mixture PIT a cut term adds nothing that a
# subnormal would not.
# Commands run inside OUT_DIR with relative --out paths, so the manifests
# of two runs compare too; OUT_DIR ends up with 128 files.  BLAS settings
# come from the caller's environment.
set -euo pipefail

src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
export PYTHONPATH="$src"

uqeval() { python -m uqeval "$@"; }

for kind in homoscedastic heteroscedastic multimodal epistemic; do
  for split in train test; do
    uqeval generate --dataset $kind --split $split --n 4099 --out "generate-$kind-$split.csv"
  done
  for tie in paper average; do
    uqeval eval --dataset $kind --n 4099 --tie-mode $tie --out "eval-$kind-$tie.csv"
  done
  uqeval sparsify --dataset $kind --n 4099 --out "sparsify-$kind.csv"
  uqeval density-grid --dataset $kind --nx 64 --ny 48 --out "density-grid-$kind.csv"
done
uqeval eval --dataset heteroscedastic --n 4099 --thresholds 7 \
  --weights uniform --tie-mode average --out eval-conventions.csv
uqeval eval --dataset heteroscedastic --n 4099 --thresholds 2 --out eval-thresholds-2.csv
uqeval eval --dataset heteroscedastic --n 1 --out eval-1.csv
uqeval eval --dataset heteroscedastic --n 2 --out eval-2.csv
uqeval eval --dataset heteroscedastic --n 4099 --weights uniform \
  > eval-stdout.csv 2> eval-stdout.manifest.json
for split in train test; do
  uqeval generate --dataset epistemic --split $split --out "generate-default-n-$split.csv"
done
uqeval density-grid --dataset heteroscedastic --x-min=-0.5 --x-max 0.25 --nx 16 --ny 8 \
  --out density-grid-x-bounds.csv
uqeval sparsify --dataset homoscedastic --n 49 --out sparsify-49.csv
uqeval sparsify --dataset multimodal --n 200003 --out sparsify-blocks.csv
uqeval sparsify --dataset multimodal --n 262145 --out sparsify-pooled.csv
uqeval generate --dataset heteroscedastic --n 393217 --out generate-pooled.csv
for n in 4096 4097; do
  uqeval sparsify --dataset heteroscedastic --n $n --out "sparsify-curve-$n.csv"
  uqeval eval --dataset heteroscedastic --n $n --out "eval-curve-$n.csv"
done
uqeval density-grid --dataset multimodal --nx 300 --ny 200 --out density-grid-x-blocks.csv
uqeval density-grid --dataset multimodal --nx 16389 --ny 2 --out density-grid-tall.csv
uqeval density-grid --dataset multimodal --nx 65539 --ny 3 --out density-grid-taller.csv
uqeval density-grid --dataset multimodal --nx 3 --ny 16389 --out density-grid-wide.csv
uqeval density-grid --dataset multimodal --nx 513 --ny 512 --out density-grid-pooled.csv
uqeval density-grid --dataset multimodal --nx 2 --ny 131073 --out density-grid-wide-pooled.csv
uqeval eval --dataset multimodal --n 200003 --out eval-blocks.csv
uqeval bias --replicates 3 --out bias.csv
uqeval bias --replicates 1 --out bias-1.csv
uqeval stability --out stability.csv
uqeval stability --dataset homoscedastic --out stability-homoscedastic.csv

uqeval train --dataset homoscedastic --n 128 --out model.npz
ensemble=(--dataset homoscedastic --predictor ensemble --model-path model.npz)
uqeval sparsify "${ensemble[@]}" --n 4099 --out sparsify-ensemble.csv
uqeval sparsify "${ensemble[@]}" --n 6143 --out sparsify-ensemble-blocks.csv
uqeval stability "${ensemble[@]}" --out stability-ensemble.csv
uqeval density-grid "${ensemble[@]}" --nx 64 --ny 48 --out density-grid-ensemble.csv
uqeval density-grid "${ensemble[@]}" --nx 12289 --ny 3 --out density-grid-ensemble-chunks.csv
uqeval bias "${ensemble[@]}" --replicates 2 --out bias-ensemble.csv
uqeval eval "${ensemble[@]}" --n 4099 --out eval-ensemble.csv
uqeval eval "${ensemble[@]}" --n 135169 --out eval-ensemble-blocks.csv

uqeval train --dataset heteroscedastic --n 1024 --out model-1024.npz
uqeval eval --dataset heteroscedastic --predictor ensemble --model-path model-1024.npz \
  --n 4099 --out eval-ensemble-1024.csv

uqeval train --dataset epistemic --n 1024 --out model-epistemic.npz
uqeval eval --dataset homoscedastic --predictor ensemble --model-path model-epistemic.npz \
  --n 4099 --out eval-ensemble-tails.csv
