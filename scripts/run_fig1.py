#!/usr/bin/env python3
"""Occupation-measure concentration experiment (geometric laws, decreasing eps).

Writes per-eps occupation samples, a summary CSV, and optionally an SVG
histogram panel. Takes the flags of `relochain fig1`; with --config FILE the
file supplies the values and the flags given override them. Without a file,
the defaults match configs/fig1.cfg except that no SVG is written unless
--emit-svg is given.
"""

import sys

from relochain.cli import main

if __name__ == "__main__":
    sys.exit(main(["fig1", *sys.argv[1:]]))
