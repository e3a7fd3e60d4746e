"""Array references for the partitioner's keep-or-release pricing and for
the overhead model's control routes.

``MarginalObjective`` prices any set of LEOs from |V|-wide gathers of their
traffic rows and columns, with every per-controller term as a numpy vector,
against ``partition.MarginalObjective``, which reads the k x k block among
serving LEOs and works per controller in Python floats. ``control_routes``
runs the multi-source BFS for every domain, against
``overhead.control_routes``, which skips it where every member of a domain
has a direct link. Both must agree bit for bit, dict order included.
"""
import numpy as np

from eunomia.overhead import DisconnectedDomainError, direct_link_map, hop_cost


class MarginalObjective:
    """Rise in W_FLOW + lambda * W_CPT of giving LEOs to each controller,
    against the domains fixed so far (see ``partition.MarginalObjective``)."""

    def __init__(self, traffic, snapshot, params, n_domains, domain_of):
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
        for leo, k in domain_of.items():
            members.setdefault(self.column[k], []).append(leo)
        for c, idx in members.items():
            idx.sort()
            among = np.ascontiguousarray(traffic.rows(idx)[:, idx])  # C order, as np.ix_ gives
            self.intra[c] = float(among.sum(axis=0).sum())
            self.size[c] = len(idx)
            self.label[idx] = c

    def flows(self, leos) -> tuple:
        """Indices of the LEOs, their outbound rates, and their rates to each
        fixed domain, from each fixed domain, and among themselves."""
        n_ctrl = len(self.size)
        idx = np.array(leos, dtype=int)
        block = self.traffic.rows(idx)
        rows = block.sum(axis=0)
        cols = self.traffic.cols(idx).sum(axis=1)
        to_dom = np.bincount(self.label, weights=rows, minlength=n_ctrl + 1)[:n_ctrl]
        from_dom = np.bincount(self.label, weights=cols, minlength=n_ctrl + 1)[:n_ctrl]
        return idx, block.sum(axis=1), to_dom, from_dom, float(rows[idx].sum())

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


def control_routes(assignment, snapshot, fov_domains) -> dict[int, tuple[int, ...]]:
    """Control path of every assigned LEO, by a multi-source BFS from each
    domain's direct-link members over intra-domain ISL edges."""
    neighbors = snapshot.topology.neighbors
    direct = direct_link_map(assignment, fov_domains)
    routes: dict[int, tuple[int, ...]] = {}
    for k, members in assignment.domains().items():
        member_set = set(members)
        usable = {leo: ctrl for leo, ctrl in direct[k].items() if leo in member_set}
        parent: dict[int, int | None] = {leo: None for leo in usable}
        frontier = sorted(usable)
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for nb in neighbors.get(node, ()):
                    if nb in member_set and nb not in parent:
                        parent[nb] = node
                        nxt.append(nb)
            frontier = sorted(nxt)
        missing = member_set - parent.keys()
        if missing:
            raise DisconnectedDomainError(f"domain of controller {k}: {sorted(missing)}")
        for leo in members:
            path = [leo]
            node = leo
            while parent[node] is not None:
                node = parent[node]
                path.append(node)
            path.append(usable[node])
            routes[leo] = tuple(path)
    return routes
