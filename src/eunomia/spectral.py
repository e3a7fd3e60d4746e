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
    if degree.min(initial=np.inf) <= 0.0:
        raise ValueError("zero-degree node in Laplacian; drop isolated nodes first")
    inv_sqrt = 1.0 / np.sqrt(degree)
    # diag(degree) - w, built in place: 0 - w off the diagonal, d - 0 = d on it
    lap = np.subtract(0.0, w, out=w)
    np.fill_diagonal(lap, degree)
    lap *= inv_sqrt[:, None] * inv_sqrt  # the outer product
    return lap


def spectral_embedding(weights: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, row-normalized embedding) for the m smallest eigenpairs."""
    lap = normalized_laplacian(weights)
    n = lap.shape[0]
    if m > n:
        raise ValueError(f"cannot extract {m} eigenvectors from {n} nodes")
    vals, vecs = eigh(lap)
    vals, vecs = vals[:m], vecs[:, :m]
    # np.linalg.norm(vecs, axis=1, keepdims=True), as that function computes it
    norms = np.sqrt(np.add.reduce(vecs * vecs, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return vals, vecs / norms


def kmeans(
    points: np.ndarray, anchors: np.ndarray | list[int], max_iter: int = KMEANS_MAX_ITER
) -> np.ndarray:
    """k-means labels for the rows of ``points``, anchored on the rows ``anchors``.

    Cluster c starts at ``points[anchors[c]]`` and always keeps that row as a
    member, so every cluster holds exactly one anchor and none empties. Ties
    go to the lowest cluster index. Each centre is its members' sum, added
    row by row in one weighted ``np.bincount``, over their count: for points
    of two or more columns that is ``points[labels == c].mean(axis=0)``.
    """
    anchors = np.asarray(anchors, dtype=int)
    k = len(anchors)
    if len(set(anchors.tolist())) != k:
        raise ValueError(f"anchors must be distinct rows, got {anchors.tolist()}")
    n, dim = points.shape
    centers = points[anchors]
    labels = np.full(n, -1)
    own = np.arange(k)
    cells = np.arange(dim)  # bin of (cluster c, coordinate d): c * dim + d
    for _ in range(max_iter):
        new_labels = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        new_labels[anchors] = own
        if (new_labels == labels).all():
            break
        labels = new_labels
        sums = np.bincount(
            (labels[:, None] * dim + cells).ravel(), weights=points.ravel(), minlength=k * dim
        )
        centers = sums.reshape(k, dim) / np.bincount(labels, minlength=k)[:, None]
    return labels
