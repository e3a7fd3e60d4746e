import numpy as np
import pytest
from scipy.linalg import eigh

from eunomia.spectral import kmeans, normalized_laplacian, spectral_embedding


def _block_graph(sizes, intra=1.0, inter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    w = np.full((n, n), inter, dtype=float)
    start = 0
    for s in sizes:
        w[start : start + s, start : start + s] = intra * rng.uniform(0.5, 1.0, (s, s))
        start += s
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def test_laplacian_is_symmetric_psd():
    w = _block_graph([4, 4], intra=1.0, inter=0.2)
    lap = normalized_laplacian(w)
    assert np.allclose(lap, lap.T)
    eigenvalues = eigh(lap, eigvals_only=True)
    assert eigenvalues.min() >= -1e-9


def test_laplacian_rejects_isolated_nodes():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(ValueError):
        normalized_laplacian(w)


def test_embedding_eigenvector_residual():
    w = _block_graph([5, 5], intra=1.0, inter=0.1)
    lap = normalized_laplacian(w)
    vals, _ = spectral_embedding(w, 2)
    full_vals, full_vecs = eigh(lap)
    residual = np.linalg.norm(lap @ full_vecs[:, :2] - full_vecs[:, :2] * full_vals[:2])
    assert residual < 1e-9


def test_zero_eigenvalue_multiplicity_counts_components():
    w = _block_graph([3, 4, 5], intra=1.0, inter=0.0)
    lap = normalized_laplacian(w)
    eigenvalues = eigh(lap, eigvals_only=True)
    assert int((np.abs(eigenvalues) < 1e-9).sum()) == 3


def test_embedding_plus_kmeans_recovers_components():
    sizes = [3, 4, 5]
    w = _block_graph(sizes, intra=1.0, inter=0.0, seed=4)
    _, emb = spectral_embedding(w, 3)
    labels = kmeans(emb, [2, 3, 11])  # one anchor per component, not its first row
    assert labels.tolist() == [0] * 3 + [1] * 4 + [2] * 5


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    a = kmeans(pts, [0, 5, 17, 33])
    b = kmeans(pts.copy(), [0, 5, 17, 33])  # no seed needed
    assert np.array_equal(a, b)
    assert set(a.tolist()) == {0, 1, 2, 3}


def test_kmeans_rejects_too_many_clusters():
    # three anchors among two points repeat one of them
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), [0, 1, 1])


def test_kmeans_separates_obvious_clusters():
    rng = np.random.default_rng(5)
    a = rng.normal(loc=0.0, scale=0.05, size=(10, 2))
    b = rng.normal(loc=5.0, scale=0.05, size=(10, 2))
    labels = kmeans(np.vstack([a, b]), [14, 3])
    assert labels.tolist() == [1] * 10 + [0] * 10


@pytest.mark.parametrize("gap", [0.0, 1e-9, 0.05])
def test_each_anchor_keeps_its_own_cluster_when_anchor_rows_are_close(gap):
    rng = np.random.default_rng(6)
    pts = np.vstack([rng.normal(0.0, 0.05, (10, 2)), rng.normal(5.0, 0.05, (10, 2))])
    pts[1] = pts[0] + gap  # anchors 0 and 1 sit (almost) on one point of one group
    labels = kmeans(pts, [0, 1, 12])
    assert labels[[0, 1, 12]].tolist() == [0, 1, 2]
    assert set(labels[10:].tolist()) == {2}
    assert np.bincount(labels, minlength=3).min() >= 1
