//! Network topology graph: nodes, directed links, and routes.
//!
//! A [`Topology`] is a directed multigraph. Nodes model NPUs, switches
//! (FRED L1/L2, mesh routers are implicit in the NPU nodes), I/O
//! controllers and off-wafer storage; links carry a bandwidth (bytes/s)
//! and a propagation latency (seconds). Routes are explicit link
//! sequences, produced by the topology-specific routing logic in
//! `fred-mesh` and `fred-core`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

use crate::flow::FlowSpec;
use crate::time::Duration;

/// Identifier of a node within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a directed link within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// The role a node plays on the wafer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A compute NPU (H100-class chiplet + HBM stacks, Table 3).
    Npu,
    /// A FRED L1 (leaf) switch.
    SwitchL1,
    /// A FRED L2 (spine) switch.
    SwitchL2,
    /// A CXL I/O controller bridging the wafer to external memory.
    IoController,
    /// Off-wafer external memory/storage (aggregation point behind the
    /// I/O controllers in the weight-streaming execution model).
    ExternalMemory,
}

impl NodeKind {
    /// True for the two switch roles.
    pub fn is_switch(self) -> bool {
        matches!(self, NodeKind::SwitchL1 | NodeKind::SwitchL2)
    }
}

/// A node of the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// The role of this node.
    pub kind: NodeKind,
    /// Human-readable label used in reports and error messages.
    pub label: String,
}

/// A directed link of the topology.
#[derive(Debug, Clone)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity in bytes per second.
    pub bandwidth: f64,
    /// Propagation latency.
    pub latency: Duration,
}

/// An ordered sequence of links forming a path. Empty routes model
/// node-local transfers (they complete after zero network time).
///
/// A route is immutable and shared: the fabric that computes it, the
/// plan transfers that name it, the [`FlowSpec`] and both layers of the
/// simulator hold the same allocation, so passing a route on costs a
/// reference count, never a copy. Build one from a `Vec<LinkId>` with
/// `.into()`.
pub type Route = Rc<[LinkId]>;

/// Routes computed on first use and shared afterwards: key `k` holds
/// whatever route the first [`RouteMemo::get`] for `k` computed. The
/// memo starts empty, so building its owner allocates nothing for it,
/// and it only ever holds the routes actually asked for (a dense table
/// over every endpoint pair of a 4096-NPU mesh would not fit in memory).
#[derive(Debug, Clone)]
pub struct RouteMemo<K> {
    routes: RefCell<HashMap<K, Route>>,
}

impl<K> Default for RouteMemo<K> {
    fn default() -> Self {
        RouteMemo {
            routes: RefCell::new(HashMap::new()),
        }
    }
}

impl<K: Hash + Eq> RouteMemo<K> {
    /// The route memoized under `key`, computing it with `compute` on
    /// the first call. `compute` may itself consult this memo (a
    /// composite route built from memoized parts).
    pub fn get(&self, key: K, compute: impl FnOnce() -> Route) -> Route {
        if let Some(route) = self.routes.borrow().get(&key) {
            return route.clone();
        }
        let route = compute();
        self.routes.borrow_mut().insert(key, route.clone());
        route
    }
}

/// A directed multigraph of nodes and links.
///
/// ```
/// use fred_sim::topology::{NodeKind, Topology};
/// let mut topo = Topology::new();
/// let a = topo.add_node(NodeKind::Npu, "npu0");
/// let b = topo.add_node(NodeKind::Npu, "npu1");
/// let ab = topo.add_link(a, b, 750e9, 20e-9);
/// assert_eq!(topo.link(ab).src, a);
/// assert_eq!(topo.find_link(a, b), Some(ab));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// (src, dst) -> link ids, in insertion order.
    by_endpoints: HashMap<(NodeId, NodeId), Vec<LinkId>>,
    /// Outgoing links per node.
    outgoing: HashMap<NodeId, Vec<LinkId>>,
    /// Incoming links per node.
    incoming: HashMap<NodeId, Vec<LinkId>>,
    /// Single-link routes, by link id (see [`Topology::link_route`]).
    link_routes: RouteMemo<LinkId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            label: label.into(),
        });
        id
    }

    /// Adds a directed link and returns its id.
    ///
    /// `bandwidth` is in bytes/second, `latency_secs` in seconds.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist, the endpoints are equal,
    /// or `bandwidth` is not strictly positive.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bandwidth: f64,
        latency_secs: f64,
    ) -> LinkId {
        assert!(src.0 < self.nodes.len(), "unknown source node {src}");
        assert!(dst.0 < self.nodes.len(), "unknown destination node {dst}");
        assert_ne!(src, dst, "self-links are not allowed");
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "link bandwidth must be positive, got {bandwidth}"
        );
        let id = LinkId(self.links.len());
        self.links.push(Link {
            src,
            dst,
            bandwidth,
            latency: Duration::from_secs(latency_secs),
        });
        self.by_endpoints.entry((src, dst)).or_default().push(id);
        self.outgoing.entry(src).or_default().push(id);
        self.incoming.entry(dst).or_default().push(id);
        id
    }

    /// Adds a pair of directed links (one each way) with identical
    /// bandwidth and latency, returning `(src->dst, dst->src)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: f64,
        latency_secs: f64,
    ) -> (LinkId, LinkId) {
        let fwd = self.add_link(a, b, bandwidth, latency_secs);
        let rev = self.add_link(b, a, bandwidth, latency_secs);
        (fwd, rev)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Returns the link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Iterates over `(NodeId, &Node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterates over `(LinkId, &Link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// All node ids of a given kind, in id order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// The first link from `src` to `dst`, if any.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.by_endpoints
            .get(&(src, dst))
            .and_then(|v| v.first().copied())
    }

    /// All parallel links from `src` to `dst`.
    pub fn links_between(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        self.by_endpoints
            .get(&(src, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The one-link route over `link`, shared by every caller (the
    /// per-link flows of in-network collectives and streaming trees).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link_route(&self, link: LinkId) -> Route {
        assert!(link.0 < self.links.len(), "unknown link {link}");
        self.link_routes.get(link, || Route::from([link]))
    }

    /// Outgoing links of `node`.
    pub fn outgoing(&self, node: NodeId) -> &[LinkId] {
        self.outgoing.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Incoming links of `node`.
    pub fn incoming(&self, node: NodeId) -> &[LinkId] {
        self.incoming.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Checks that `route` is a contiguous path, returning its endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if any link id is out of range or two
    /// consecutive links do not share an endpoint. An empty route yields
    /// `None` (node-local transfer).
    pub fn validate_route(&self, route: &[LinkId]) -> Result<Option<(NodeId, NodeId)>, RouteError> {
        let Some(&first) = route.first() else {
            return Ok(None);
        };
        for &l in route {
            if l.0 >= self.links.len() {
                return Err(RouteError::UnknownLink(l));
            }
        }
        let mut at = self.link(first).dst;
        for &l in &route[1..] {
            let link = self.link(l);
            if link.src != at {
                return Err(RouteError::Discontiguous {
                    expected: at,
                    found: link.src,
                    link: l,
                });
            }
            at = link.dst;
        }
        Ok(Some((self.link(first).src, at)))
    }

    /// Total propagation latency along a route.
    pub fn route_latency(&self, route: &[LinkId]) -> Duration {
        route
            .iter()
            .fold(Duration::ZERO, |acc, &l| acc + self.link(l).latency)
    }

    /// The minimum bandwidth along a route (the route's line rate).
    ///
    /// Returns `f64::INFINITY` for an empty route.
    pub fn route_line_rate(&self, route: &[LinkId]) -> f64 {
        route
            .iter()
            .map(|&l| self.link(l).bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    /// Shortest path (fewest hops, BFS) from `src` to `dst`, if one exists.
    ///
    /// Topology-specific deterministic routing (X-Y on the mesh, up-down
    /// on the FRED tree) lives in the respective crates; this generic BFS
    /// is a fallback and a test oracle.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        self.shortest_path_avoiding(src, dst, |_| false)
    }

    /// Shortest path (fewest hops, BFS) from `src` to `dst` that never
    /// traverses a link for which `blocked` returns true.
    ///
    /// This is the generic re-route oracle of the fault layer: the
    /// topology-specific routers (X-Y on the mesh, up-down on the FRED
    /// tree) fall back to it when their deterministic route crosses a
    /// failed link, passing the set of failed links as `blocked`.
    pub fn shortest_path_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        blocked: impl Fn(LinkId) -> bool,
    ) -> Option<Route> {
        if src == dst {
            return Some(Route::default());
        }
        let mut prev: HashMap<NodeId, LinkId> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        while let Some(at) = queue.pop_front() {
            for &l in self.outgoing(at) {
                if blocked(l) {
                    continue;
                }
                let next = self.link(l).dst;
                if next != src && !prev.contains_key(&next) {
                    prev.insert(next, l);
                    if next == dst {
                        let mut route = Vec::new();
                        let mut cur = dst;
                        while cur != src {
                            let l = prev[&cur];
                            route.push(l);
                            cur = self.link(l).src;
                        }
                        route.reverse();
                        return Some(route.into());
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Repairs a compiled flow set against a set of blocked links: every
    /// flow whose route crosses a blocked link is re-routed over the
    /// shortest surviving path between the same endpoints (bytes,
    /// priority and tag are preserved); flows on healthy routes pass
    /// through untouched. Returns `None` if any affected flow has no
    /// surviving path — the fabric is cut between its endpoints.
    ///
    /// This is the tree/collective analogue of the point-to-point
    /// `*_route_avoiding` routers in the fabric crates: the in-network
    /// collective compilers emit one flow per tree leg, so repairing
    /// each leg independently re-hangs the tree around the failure.
    pub fn reroute_flows_avoiding(
        &self,
        flows: Vec<FlowSpec>,
        blocked: impl Fn(LinkId) -> bool,
    ) -> Option<Vec<FlowSpec>> {
        let mut out = Vec::with_capacity(flows.len());
        for f in flows {
            if !f.route.iter().any(|&l| blocked(l)) {
                out.push(f);
                continue;
            }
            let src = self.link(f.route[0]).src;
            let dst = self.link(*f.route.last().expect("non-empty route")).dst;
            let detour = self.shortest_path_avoiding(src, dst, &blocked)?;
            out.push(
                FlowSpec::new(detour, f.bytes)
                    .with_priority(f.priority)
                    .with_tag(f.tag),
            );
        }
        Some(out)
    }

    /// Rebuilds the adjacency indexes. Required after deserialisation
    /// (the indexes are not serialised).
    pub fn rebuild_indexes(&mut self) {
        self.by_endpoints.clear();
        self.outgoing.clear();
        self.incoming.clear();
        for (i, l) in self.links.iter().enumerate() {
            let id = LinkId(i);
            self.by_endpoints
                .entry((l.src, l.dst))
                .or_default()
                .push(id);
            self.outgoing.entry(l.src).or_default().push(id);
            self.incoming.entry(l.dst).or_default().push(id);
        }
    }
}

/// Errors produced by [`Topology::validate_route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A link id in the route does not exist in the topology.
    UnknownLink(LinkId),
    /// The route crosses a link that has been killed by fault
    /// injection ([`crate::netsim::FlowNetwork::fail_link`]).
    FailedLink(LinkId),
    /// Two consecutive links do not share an endpoint.
    Discontiguous {
        /// Node where the previous link ended.
        expected: NodeId,
        /// Node where the offending link starts.
        found: NodeId,
        /// The offending link.
        link: LinkId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownLink(l) => write!(f, "route references unknown link {l}"),
            RouteError::FailedLink(l) => write!(f, "route crosses failed link {l}"),
            RouteError::Discontiguous {
                expected,
                found,
                link,
            } => write!(
                f,
                "route is discontiguous at link {link}: expected start {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, Vec<NodeId>, Vec<LinkId>) {
        let mut t = Topology::new();
        let n: Vec<_> = (0..3)
            .map(|i| t.add_node(NodeKind::Npu, format!("n{i}")))
            .collect();
        let l01 = t.add_link(n[0], n[1], 100.0, 1e-9);
        let l12 = t.add_link(n[1], n[2], 200.0, 2e-9);
        (t, n, vec![l01, l12])
    }

    #[test]
    fn adds_nodes_and_links() {
        let (t, n, l) = line3();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.link(l[0]).src, n[0]);
        assert_eq!(t.link(l[1]).dst, n[2]);
        assert_eq!(t.node(n[0]).label, "n0");
    }

    #[test]
    fn duplex_links_are_symmetric() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        let b = t.add_node(NodeKind::SwitchL1, "s");
        let (f, r) = t.add_duplex_link(a, b, 3e12, 20e-9);
        assert_eq!(t.link(f).src, a);
        assert_eq!(t.link(r).src, b);
        assert_eq!(t.find_link(b, a), Some(r));
    }

    #[test]
    fn validates_contiguous_routes() {
        let (t, n, l) = line3();
        assert_eq!(t.validate_route(&[l[0], l[1]]).unwrap(), Some((n[0], n[2])));
        assert_eq!(t.validate_route(&[]).unwrap(), None);
    }

    #[test]
    fn rejects_discontiguous_routes() {
        let (t, _, l) = line3();
        let err = t.validate_route(&[l[1], l[0]]).unwrap_err();
        assert!(matches!(err, RouteError::Discontiguous { .. }));
        assert!(t.validate_route(&[LinkId(99)]).is_err());
    }

    #[test]
    fn route_latency_and_line_rate() {
        let (t, _, l) = line3();
        let route = vec![l[0], l[1]];
        assert!((t.route_latency(&route).as_nanos() - 3.0).abs() < 1e-9);
        assert_eq!(t.route_line_rate(&route), 100.0);
        assert_eq!(t.route_line_rate(&[]), f64::INFINITY);
    }

    #[test]
    fn bfs_finds_shortest_path() {
        let (t, n, l) = line3();
        assert_eq!(*t.shortest_path(n[0], n[2]).unwrap(), [l[0], l[1]]);
        assert!(t.shortest_path(n[0], n[0]).unwrap().is_empty());
        // No reverse links exist.
        assert!(t.shortest_path(n[2], n[0]).is_none());
    }

    #[test]
    fn bfs_avoiding_detours_around_blocked_links() {
        // Diamond: a -> b -> d and a -> c -> d. Blocking a->b forces
        // the c detour; blocking both a-exits disconnects d.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        let b = t.add_node(NodeKind::Npu, "b");
        let c = t.add_node(NodeKind::Npu, "c");
        let d = t.add_node(NodeKind::Npu, "d");
        let ab = t.add_link(a, b, 100.0, 0.0);
        let bd = t.add_link(b, d, 100.0, 0.0);
        let ac = t.add_link(a, c, 100.0, 0.0);
        let cd = t.add_link(c, d, 100.0, 0.0);
        assert_eq!(
            t.shortest_path_avoiding(a, d, |l| l == ab),
            Some(vec![ac, cd].into())
        );
        assert_eq!(
            t.shortest_path_avoiding(a, d, |_| false),
            Some(vec![ab, bd].into())
        );
        assert_eq!(t.shortest_path_avoiding(a, d, |l| l == ab || l == ac), None);
    }

    #[test]
    fn reroute_flows_repairs_only_affected_legs() {
        use crate::flow::Priority;
        // Diamond again: a -> b -> d and a -> c -> d.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        let b = t.add_node(NodeKind::Npu, "b");
        let c = t.add_node(NodeKind::Npu, "c");
        let d = t.add_node(NodeKind::Npu, "d");
        let ab = t.add_link(a, b, 100.0, 0.0);
        let bd = t.add_link(b, d, 100.0, 0.0);
        let ac = t.add_link(a, c, 100.0, 0.0);
        let cd = t.add_link(c, d, 100.0, 0.0);
        let flows = vec![
            FlowSpec::new(vec![ab, bd], 10.0)
                .with_priority(Priority::Mp)
                .with_tag(7),
            FlowSpec::new(vec![ac], 20.0),
        ];
        let fixed = t
            .reroute_flows_avoiding(flows.clone(), |l| l == ab)
            .unwrap();
        // Leg 0 detoured a->c->d, metadata preserved; leg 1 untouched.
        assert_eq!(*fixed[0].route, [ac, cd]);
        assert_eq!(
            (fixed[0].bytes, fixed[0].priority, fixed[0].tag),
            (10.0, Priority::Mp, 7)
        );
        assert_eq!(fixed[1], flows[1]);
        // Cutting both exits of `a` leaves leg 0 unroutable.
        assert!(t
            .reroute_flows_avoiding(flows, |l| l == ab || l == ac)
            .is_none());
    }

    #[test]
    fn nodes_of_kind_filters() {
        let mut t = Topology::new();
        t.add_node(NodeKind::Npu, "a");
        let s = t.add_node(NodeKind::SwitchL1, "s");
        t.add_node(NodeKind::Npu, "b");
        assert_eq!(t.nodes_of_kind(NodeKind::SwitchL1), vec![s]);
        assert_eq!(t.nodes_of_kind(NodeKind::Npu).len(), 2);
        assert!(NodeKind::SwitchL2.is_switch());
        assert!(!NodeKind::Npu.is_switch());
    }

    #[test]
    fn rebuild_indexes_restores_adjacency() {
        // The adjacency maps are derived indexes; after reloading a topology
        // callers must rebuild them. Emulate by rebuilding in place and
        // checking every index agrees with the original.
        let (t, n, l) = line3();
        let mut t2 = t.clone();
        t2.rebuild_indexes();
        assert_eq!(t2.find_link(n[0], n[1]), Some(l[0]));
        assert_eq!(t2.outgoing(n[1]), t.outgoing(n[1]));
        assert_eq!(t2.incoming(n[2]), t.incoming(n[2]));
        assert_eq!(t2.links_between(n[0], n[1]), &[l[0]]);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_link_panics() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        let b = t.add_node(NodeKind::Npu, "b");
        t.add_link(a, b, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        t.add_link(a, a, 1.0, 0.0);
    }
}
