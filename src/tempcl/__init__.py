"""tempcl: a desk-scale contrastive learning laboratory.

Implements the InfoNCE objective with per-anchor temperatures, dynamic
temperature schedules, long-tail dataset construction, a small unit-sphere
MLP encoder with manual backpropagation, kNN / linear-probe evaluation, and
embedding-space diagnostics (coverage, negative-contribution curves, PCA).
"""
