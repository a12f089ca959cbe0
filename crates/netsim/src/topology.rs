//! Link matrices and the paper's system presets.

use lls_primitives::{Membership, ProcessId};

use crate::link::LinkModel;

/// Parameters of the paper's system **S**: all links at least fair lossy, and
/// one designated correct process whose *outgoing* links are ♦-timely (the
/// ♦-source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemSParams {
    /// GST of the source's outgoing links (unknown to the protocol).
    pub gst: u64,
    /// Post-GST delay bound `δ` on the source's outgoing links.
    pub delta: u64,
    /// Loss probability on the source's outgoing links before GST.
    pub pre_gst_loss: f64,
    /// Loss probability on every other link (fair lossy, `< 1`).
    pub mesh_loss: f64,
    /// Base delay of the fair-lossy mesh.
    pub mesh_delay: u64,
}

impl Default for SystemSParams {
    fn default() -> Self {
        SystemSParams {
            gst: 500,
            delta: 5,
            pre_gst_loss: 0.7,
            mesh_loss: 0.3,
            mesh_delay: 3,
        }
    }
}

/// The full `n × n` matrix of unidirectional link models.
///
/// Self-links exist for completeness (a process may send to itself) and are
/// always [`LinkModel::timely`] with delay 1 unless overridden.
///
/// # Example
///
/// ```
/// use netsim::{Topology, LinkModel, SystemSParams};
/// use lls_primitives::ProcessId;
///
/// // System S with process 2 as the ♦-source.
/// let topo = Topology::system_s(5, ProcessId(2), SystemSParams::default());
/// assert!(topo.is_source(ProcessId(2)));
/// assert!(!topo.is_source(ProcessId(0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n: usize,
    /// Row-major: `links[from * n + to]`.
    links: Vec<LinkModel>,
}

impl Topology {
    /// All links timely with constant-ish delay up to `delta` ticks — the
    /// strongest model (what all-to-all heartbeat algorithms need).
    pub fn all_timely(n: usize, delta: lls_primitives::Duration) -> Self {
        let m = Membership::new(n);
        let _ = m;
        Topology {
            n,
            links: vec![LinkModel::timely(delta.ticks().max(1)); n * n],
        }
    }

    /// All links fair lossy — no ♦-source anywhere (Ω is *not* implementable
    /// here; used as a negative control in experiments).
    pub fn fair_lossy_mesh(n: usize, loss: f64, base_delay: u64) -> Self {
        Membership::new(n);
        Topology {
            n,
            links: vec![LinkModel::fair_lossy(loss, base_delay); n * n],
        }
    }

    /// The paper's system **S**: a fair-lossy mesh plus one ♦-source whose
    /// outgoing links are eventually timely.
    pub fn system_s(n: usize, source: ProcessId, p: SystemSParams) -> Self {
        let mut topo = Topology::fair_lossy_mesh(n, p.mesh_loss, p.mesh_delay);
        topo.set_outgoing(
            source,
            LinkModel::eventually_timely(p.gst, p.delta, p.pre_gst_loss),
        );
        topo
    }

    /// Like [`Topology::system_s`] but with *several* ♦-sources.
    pub fn system_s_multi(n: usize, sources: &[ProcessId], p: SystemSParams) -> Self {
        let mut topo = Topology::fair_lossy_mesh(n, p.mesh_loss, p.mesh_delay);
        for &s in sources {
            topo.set_outgoing(
                s,
                LinkModel::eventually_timely(p.gst, p.delta, p.pre_gst_loss),
            );
        }
        topo
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The model of the link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn link(&self, from: ProcessId, to: ProcessId) -> &LinkModel {
        assert!(from.as_usize() < self.n && to.as_usize() < self.n);
        &self.links[from.as_usize() * self.n + to.as_usize()]
    }

    /// Replaces the link `from → to`.
    pub fn set_link(&mut self, from: ProcessId, to: ProcessId, model: LinkModel) -> &mut Self {
        assert!(from.as_usize() < self.n && to.as_usize() < self.n);
        self.links[from.as_usize() * self.n + to.as_usize()] = model;
        self
    }

    /// Replaces every outgoing link of `from` (except the self-link).
    pub fn set_outgoing(&mut self, from: ProcessId, model: LinkModel) -> &mut Self {
        for to in 0..self.n {
            if to != from.as_usize() {
                self.links[from.as_usize() * self.n + to] = model;
            }
        }
        self
    }

    /// Replaces every incoming link of `to` (except the self-link).
    pub fn set_incoming(&mut self, to: ProcessId, model: LinkModel) -> &mut Self {
        for from in 0..self.n {
            if from != to.as_usize() {
                self.links[from * self.n + to.as_usize()] = model;
            }
        }
        self
    }

    /// Returns `true` if every outgoing link of `p` is ♦-timely, i.e. `p`
    /// would be a ♦-source if correct.
    pub fn is_source(&self, p: ProcessId) -> bool {
        (0..self.n)
            .filter(|&to| to != p.as_usize())
            .all(|to| self.links[p.as_usize() * self.n + to].is_eventually_timely())
    }

    /// All processes whose outgoing links are ♦-timely.
    pub fn sources(&self) -> Vec<ProcessId> {
        (0..self.n as u32)
            .map(ProcessId)
            .filter(|&p| self.is_source(p))
            .collect()
    }

    /// Number of ♦-timely links (directed, excluding self-links).
    pub fn timely_link_count(&self) -> usize {
        let mut count = 0;
        for from in 0..self.n {
            for to in 0..self.n {
                if from != to && self.links[from * self.n + to].is_eventually_timely() {
                    count += 1;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::Duration;

    #[test]
    fn all_timely_has_every_process_as_source() {
        let t = Topology::all_timely(4, Duration::from_ticks(2));
        assert_eq!(t.sources().len(), 4);
        assert_eq!(t.timely_link_count(), 12);
    }

    #[test]
    fn fair_lossy_mesh_has_no_source() {
        let t = Topology::fair_lossy_mesh(4, 0.5, 2);
        assert!(t.sources().is_empty());
        assert_eq!(t.timely_link_count(), 0);
    }

    #[test]
    fn system_s_has_exactly_the_designated_source() {
        let t = Topology::system_s(5, ProcessId(3), SystemSParams::default());
        assert_eq!(t.sources(), vec![ProcessId(3)]);
        assert_eq!(t.timely_link_count(), 4);
    }

    #[test]
    fn system_s_multi_sets_all_sources() {
        let t =
            Topology::system_s_multi(5, &[ProcessId(0), ProcessId(4)], SystemSParams::default());
        assert_eq!(t.sources(), vec![ProcessId(0), ProcessId(4)]);
    }

    #[test]
    fn set_incoming_only_touches_target_column() {
        let mut t = Topology::all_timely(3, Duration::from_ticks(1));
        t.set_incoming(ProcessId(1), LinkModel::Dead);
        assert_eq!(*t.link(ProcessId(0), ProcessId(1)), LinkModel::Dead);
        assert_eq!(*t.link(ProcessId(2), ProcessId(1)), LinkModel::Dead);
        assert!(t.link(ProcessId(0), ProcessId(2)).is_eventually_timely());
        // Self-link untouched.
        assert!(t.link(ProcessId(1), ProcessId(1)).is_eventually_timely());
    }

    #[test]
    fn degrading_links_one_by_one_reduces_count() {
        let mut t = Topology::all_timely(3, Duration::from_ticks(1));
        assert_eq!(t.timely_link_count(), 6);
        t.set_link(ProcessId(0), ProcessId(1), LinkModel::fair_lossy(0.2, 2));
        assert_eq!(t.timely_link_count(), 5);
        assert!(!t.is_source(ProcessId(0)));
    }

    #[test]
    #[should_panic]
    fn link_access_out_of_range_panics() {
        let t = Topology::all_timely(3, Duration::from_ticks(1));
        let _ = t.link(ProcessId(3), ProcessId(0));
    }
}
