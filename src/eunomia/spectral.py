"""Normalized-Laplacian spectral embedding and an anchored k-means.

The embedding takes the eigenvectors of the m smallest eigenvalues of
L_sym = D^{-1/2} (D - W) D^{-1/2} and row-normalizes them (Ng, Jordan and
Weiss, 2001). k-means is seeded and constrained by m anchor rows (Basu,
Banerjee and Mooney, 2002): each cluster starts at its anchor's row and
keeps that anchor, so two anchors never share a cluster. Nothing is drawn at
random, and ties resolve to the lowest index throughout.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

KMEANS_MAX_ITER = 100


def normalized_laplacian(weights: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian of a weighted adjacency matrix.

    The diagonal of ``weights`` is ignored; rows with zero degree must be
    removed by the caller beforehand.
    """
    w = np.array(weights, dtype=float)
    np.fill_diagonal(w, 0.0)
    degree = w.sum(axis=1)
    if np.any(degree <= 0.0):
        raise ValueError("zero-degree node in Laplacian; drop isolated nodes first")
    inv_sqrt = 1.0 / np.sqrt(degree)
    lap = np.diag(degree) - w
    return lap * np.outer(inv_sqrt, inv_sqrt)


def spectral_embedding(weights: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, row-normalized embedding) for the m smallest eigenpairs."""
    lap = normalized_laplacian(weights)
    n = lap.shape[0]
    if m > n:
        raise ValueError(f"cannot extract {m} eigenvectors from {n} nodes")
    vals, vecs = eigh(lap)
    vals, vecs = vals[:m], vecs[:, :m]
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return vals, vecs / norms


def kmeans(
    points: np.ndarray, anchors: np.ndarray | list[int], max_iter: int = KMEANS_MAX_ITER
) -> np.ndarray:
    """k-means labels for the rows of ``points``, anchored on the rows ``anchors``.

    Cluster c starts at ``points[anchors[c]]`` and always keeps that row as a
    member, so every cluster holds exactly one anchor and none empties. Ties
    go to the lowest cluster index.
    """
    anchors = np.asarray(anchors, dtype=int)
    k = len(anchors)
    if np.unique(anchors).size != k:
        raise ValueError(f"anchors must be distinct rows, got {anchors.tolist()}")
    centers = points[anchors].copy()
    labels = np.full(len(points), -1)
    for _ in range(max_iter):
        new_labels = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        new_labels[anchors] = np.arange(k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels
