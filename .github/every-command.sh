#!/usr/bin/env bash
# Runs each kind of mfdma command once on small inputs, in the current
# directory: generate (all three kinds), analyze (json, csv-set and
# plot-data), surrogate, compare (series and surface, each in the mode its
# reference implies) and oracle (to stdout and to a file).
# The files it leaves there (measure.csv, surface.csv, noise.csv and the
# output trees) are read by later steps.
#
#   cd "$(mktemp -d)" && bash path/to/.github/every-command.sh
set -euo pipefail

mfdma generate binomial --p1 0.3 --levels 10 --out measure.csv
mfdma generate cascade2d --weights 0.1,0.2,0.3,0.4 --levels 6 --out surface.csv
mfdma generate noise --length 4096 --seed 1 --out noise.csv
mfdma analyze --input measure.csv --n-min 8 --n-max 64 --n-count 10 --out-dir series
mfdma analyze --mode surface --input surface.csv --out-dir surface --format csv-set
mfdma analyze --input noise.csv --method mfdfa --format plot-data --out-dir noise
mfdma surrogate --input noise.csv --seed 1 --out-dir surrogate
mfdma compare --analytic-p1 0.3 --input measure.csv --out-dir compare
mfdma compare --analytic-weights 0.1,0.2,0.3,0.4 --input surface.csv --out-dir compare-surface
mfdma oracle --p1 0.3 --q-step 1
mfdma oracle --weights 0.1,0.2,0.3,0.4 --q-step 1 --out oracle.csv
