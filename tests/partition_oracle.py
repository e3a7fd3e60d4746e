"""References for the partitioner's CORG, its keep-or-release pricing and
the overhead model's control routes.

``build_corg`` costs one region's edges on its own, totalling each switch's
rate from |V|-wide row and column gathers, and ``similarity`` takes one
scalar ``np.exp`` per edge, against ``corg.corg_edges``, which costs every
edge of a slot in one pass from the traffic's rate vectors, and
``corg.similarity``, which takes one ``np.exp`` over the edge array.

``spectral_cluster`` takes the similarity's sigma from ``np.median``, builds
the Laplacian from ``np.diag`` and ``np.outer``, row-normalises with
``np.linalg.norm`` and moves each k-means centre to its masked mean,
against ``partition.spectral_cluster``, which runs the same steps with
fewer array calls: a sorted middle, an in-place Laplacian, the norm's own
reduction and one bincount of the centres.

``MarginalObjective`` prices any set of LEOs from |V|-wide gathers of their
traffic rows and columns, with every per-controller term as a numpy vector,
against ``partition.MarginalObjective``, which reads the k x k block among
serving LEOs and works per controller in Python floats. ``control_routes``
runs one multi-source BFS per domain in Python, from per-controller direct
links read off the FOV rows, against ``overhead.control_routes``, which runs
one BFS for the whole slot over a per-LEO direct-link array and skips it
where every managed LEO has a direct link. Each pair must agree bit for
bit, order included, and both raise the same message for a disconnected
domain.
"""
import math

import numpy as np
from scipy.linalg import eigh

from eunomia.constellation import ROLE_CODE, Role, norm
from eunomia.corg import CorgWeights, edge_weight
from eunomia.overhead import DisconnectedDomainError, hop_cost
from eunomia.partition import Cluster

import geometry_oracle
import traffic_oracle
from conftest import domains


def pairwise_costs(a, b, traffic, snapshot, params, weights):
    """(flow, sync, mobility) cost components of the CORG edges (a, b), each
    switch's total rate summed from its gathered |V|-wide row and column."""
    a, b = np.asarray(a), np.asarray(b)
    codes = snapshot.role_codes
    is_leo = codes == ROLE_CODE[Role.LEO]
    switch_pair = is_leo[a] & is_leo[b]
    i = np.where(is_leo[a], a, b)
    j = np.where(switch_pair, np.where(is_leo[a], b, a), i)
    uniq, inv = np.unique(i, return_inverse=True)
    rows, cols = traffic_oracle.rows(traffic, uniq), traffic_oracle.cols(traffic, uniq)
    total = rows.sum(axis=1) + np.ascontiguousarray(cols.T).sum(axis=1)
    mutual = traffic.at(i, j) + traffic.at(j, i)
    lam = np.where(switch_pair, mutual, total[inv].reshape(i.shape))
    w_flow = lam * hop_cost(snapshot, params, a, b, params.m_fl_bytes)
    w_sync = params.f_sync_hz * hop_cost(snapshot, params, a, b, params.m_sync_bytes)

    va, vb = snapshot.velocities[a], snapshot.velocities[b]
    na, nb = norm(va), norm(vb)
    with np.errstate(invalid="ignore", divide="ignore"):
        divergence = norm(va / na[..., None] - vb / nb[..., None]) / 2.0
    is_gs = codes == ROLE_CODE[Role.GS]
    still = is_gs[a] | is_gs[b] | (na == 0.0) | (nb == 0.0)
    w_mig = np.where(still, 0.0, divergence * weights.mig_unit_s)
    return w_flow, w_sync, w_mig


def build_corg(region, traffic, snapshot, params, fov_sets, weights=None):
    """(node ids, {(low id, high id): xi}) of one region's CORG: the ISL edges
    between member LEOs and every in-FOV (controller, member) pair, from
    controller id -> the set of LEOs it sees."""
    w = weights or CorgWeights()
    leos = sorted(region.leo_ids)
    ctrls = list(region.controller_ids)
    member = np.zeros(len(snapshot.roles), dtype=bool)
    member[leos] = True
    isl = snapshot.topology.edge_array
    pairs = list(map(tuple, isl[member[isl].all(axis=1)].tolist()))
    pairs += [
        (leo, k) if leo < k else (k, leo) for k in ctrls for leo in leos if leo in fov_sets[k]
    ]
    edges = {}
    if pairs:
        a, b = np.array(pairs).T
        xi = edge_weight(pairwise_costs(a, b, traffic, snapshot, params, w), w)
        edges = dict(zip(pairs, xi.tolist()))
    return tuple(leos + ctrls), edges


def similarity(node_ids, edges, sigma=None) -> tuple[np.ndarray, float]:
    """(values, sigma) of the Gaussian kernel exp(-xi / (2 sigma^2)), one
    scalar exp per edge."""
    if sigma is None:
        positive = [x for x in edges.values() if x > 0.0]
        sigma = math.sqrt(np.median(positive)) if positive else 1.0
    n = len(node_ids)
    index = {node: i for i, node in enumerate(node_ids)}
    values = np.zeros((n, n))
    np.fill_diagonal(values, 1.0)
    for (a, b), xi in edges.items():
        s = float(np.exp(-xi / (2.0 * sigma**2)))
        values[index[a], index[b]] = s
        values[index[b], index[a]] = s
    return values, sigma


def spectral_cluster(corg, m, snapshot, sigma=None):
    """(clusters, fallback_used) of ``corg`` in m groups, one per virtual
    controller node (see ``partition.spectral_cluster``)."""
    n_leo = len(corg.leo_ids)
    virtual_ids = corg.virtual_ids
    virtual_idx = np.arange(n_leo, n_leo + m)
    if sigma is None:
        positive = corg.xi[corg.xi > 0.0]
        sigma = math.sqrt(np.median(positive)) if positive.size else 1.0
    node_ids = corg.node_ids
    index = np.zeros(max(node_ids) + 1, dtype=np.int64)
    index[list(node_ids)] = np.arange(len(node_ids))
    i, j = index[corg.pairs].T
    weights = np.zeros((len(node_ids), len(node_ids)))
    weights[i, j] = weights[j, i] = np.exp(-corg.xi / (2.0 * sigma**2))
    if weights.max() > 0.0:
        weights[weights < 1e-15 * weights.max()] = 0.0
    degree = weights.sum(axis=1)
    if np.any(degree[virtual_idx] <= 0.0):
        return [], True
    active = np.flatnonzero(degree > 0.0)
    w = weights[np.ix_(active, active)]
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    lap = (np.diag(w.sum(axis=1)) - w) * np.outer(inv_sqrt, inv_sqrt)
    _, vecs = eigh(lap)
    vecs = vecs[:, :m]
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    labels = np.full(n_leo + m, -1)
    labels[active] = kmeans(vecs / norms, np.searchsorted(active, virtual_idx))
    members = {k: [] for k in virtual_ids}
    for x, leo in enumerate(corg.leo_ids):
        if labels[x] >= 0:
            members[virtual_ids[labels[x]]].append(leo)
        else:  # a LEO of zero degree joins its nearest virtual node
            members[geometry_oracle.by_distance(snapshot, leo, virtual_ids)[0]].append(leo)
    return [Cluster(tuple(sorted(members[k])), k) for k in virtual_ids], False


def kmeans(points, anchors, max_iter=100):
    """Anchored k-means labels, each centre moved to its cluster's masked mean."""
    k = len(anchors)
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


class MarginalObjective:
    """Rise in W_FLOW + lambda * W_CPT of giving LEOs to each controller,
    against the domains fixed so far (see ``partition.MarginalObjective``)."""

    def __init__(self, traffic, snapshot, params, n_domains, controller):
        self.traffic = traffic
        self.lam = params.tradeoff_lambda
        ctrls = snapshot.controller_ids
        self.column = {k: c for c, k in enumerate(ctrls)}
        self.inv_cap = np.array([1.0 / params.capacity_of(k, snapshot.roles[k]) for k in ctrls])
        self.inter_cpt = params.cpt_cost(n_domains)
        self.cpt = np.array([params.cpt_cost(n) for n in range(len(traffic.leo_ids) + 1)])
        leos = np.array(traffic.leo_ids)[:, None]
        self.hop = hop_cost(snapshot, params, leos, np.array(ctrls), params.m_fl_bytes)
        self.label = np.full(len(traffic.leo_ids), len(ctrls))  # len(ctrls): not fixed
        self.size = np.zeros(len(ctrls), dtype=int)
        self.intra = np.zeros(len(ctrls))
        members: dict[int, list[int]] = {}
        for leo, k in enumerate(controller.tolist()):
            if k >= 0:
                members.setdefault(self.column[k], []).append(leo)
        for c, idx in members.items():
            idx.sort()
            # C order, as np.ix_ gives
            among = np.ascontiguousarray(traffic_oracle.rows(traffic, idx)[:, idx])
            self.intra[c] = float(among.sum(axis=0).sum())
            self.size[c] = len(idx)
            self.label[idx] = c

    def flows(self, leos) -> tuple:
        """Indices of the LEOs, their outbound rates, and their rates to each
        fixed domain, from each fixed domain, and among themselves."""
        n_ctrl = len(self.size)
        idx = np.array(leos, dtype=int)
        block = traffic_oracle.rows(self.traffic, idx)
        to_leos = block.sum(axis=0)
        from_leos = traffic_oracle.cols(self.traffic, idx).sum(axis=1)
        to_dom = np.bincount(self.label, weights=to_leos, minlength=n_ctrl + 1)[:n_ctrl]
        from_dom = np.bincount(self.label, weights=from_leos, minlength=n_ctrl + 1)[:n_ctrl]
        return idx, block.sum(axis=1), to_dom, from_dom, float(to_leos[idx].sum())

    def cost(self, leos, controllers) -> np.ndarray:
        cols = np.array([self.column[k] for k in controllers], dtype=int)
        if not leos:
            return np.zeros(len(cols))
        idx, outbound, to_dom, from_dom, among = self.flows(leos)
        inv_cap = self.inv_cap[cols]
        size, intra = self.size[cols], self.intra[cols]
        w_flow = outbound @ self.hop[idx][:, cols]
        d_intra = (
            self.cpt[size + idx.size] * (intra + to_dom[cols] + from_dom[cols] + among)
            - self.cpt[size] * intra
        ) * inv_cap
        d_inter = self.inter_cpt * (
            float(from_dom @ self.inv_cap)
            - from_dom[cols] * inv_cap
            + (to_dom.sum() - to_dom[cols]) * inv_cap
        )
        return w_flow + self.lam * (d_intra + d_inter)

    def fix(self, leos, controller) -> None:
        if not leos:
            return
        c = self.column[controller]
        idx, _, to_dom, from_dom, among = self.flows(leos)
        self.intra[c] += to_dom[c] + from_dom[c] + among
        self.size[c] += idx.size
        self.label[idx] = c


def direct_links(assignment, fov_domains) -> dict[int, dict[int, int]]:
    """Per controller with a domain: {LEO with a usable direct link ->
    terminal controller id}. Normally the FOV row of the domain's own
    controller; under a waived FOV every relay's FOV members, each
    terminating at the lowest-id relay that sees it."""
    n_ctrl, n_leo = fov_domains.shape

    def seen_by(k: int) -> list[int]:  # none for a node that is not a controller
        return fov_domains[k - n_leo].nonzero()[0].tolist() if 0 <= k - n_leo < n_ctrl else []

    keys = domains(assignment)
    if not assignment.fov_waived or not assignment.relay_controller_ids:
        return {k: {leo: k for leo in seen_by(k)} for k in keys}
    relayed: dict[int, int] = {}
    for r in sorted(set(assignment.relay_controller_ids)):
        for leo in seen_by(r):
            relayed.setdefault(leo, r)  # the lowest id wins
    return {k: relayed for k in keys}


def control_routes(assignment, snapshot, fov_domains) -> dict[int, tuple[int, ...]]:
    """Control path of every assigned LEO, by a multi-source BFS from each
    domain's direct-link members over intra-domain ISL edges."""
    graph = snapshot.topology.graph
    direct = direct_links(assignment, fov_domains)
    routes: dict[int, tuple[int, ...]] = {}
    for k, members in domains(assignment).items():
        member_set = set(members)
        usable = {leo: ctrl for leo, ctrl in direct[k].items() if leo in member_set}
        parent: dict[int, int | None] = {leo: None for leo in usable}
        frontier = sorted(usable)
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for nb in graph.indices[graph.indptr[node] : graph.indptr[node + 1]].tolist():
                    if nb in member_set and nb not in parent:
                        parent[nb] = node
                        nxt.append(nb)
            frontier = sorted(nxt)
        missing = member_set - parent.keys()
        if missing:
            raise DisconnectedDomainError(
                f"domain of controller {k}: members {sorted(missing)} cannot reach a direct link"
            )
        for leo in members:
            path = [leo]
            node = leo
            while parent[node] is not None:
                node = parent[node]
                path.append(node)
            path.append(usable[node])
            routes[leo] = tuple(path)
    return routes
