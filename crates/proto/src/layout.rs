//! Chip layouts (the paper's Figure 1).
//!
//! A [`Layout`] assigns a [`NodeKind`] — GPU core, CPU core, or memory
//! node — to every position of the node grid. Four layouts are modeled:
//!
//! * **Baseline** (Fig. 1a): CPU columns on the left, one (or more) memory
//!   column between the CPUs and the GPUs, GPU columns on the right. This
//!   isolates CPU and GPU traffic except inside memory-node routers.
//! * **B** (Fig. 1b): memory nodes occupy the top row (die-edge memory
//!   controllers), CPU columns on the left, GPU columns on the right, with
//!   one mixed column.
//! * **C** (Fig. 1c): CPU cores clustered in a square block in the
//!   top-left corner (minimizing CPU-to-CPU hops), memory nodes in a
//!   2-row block below them (GPU traffic multiplexes onto 4 column links).
//! * **D** (Fig. 1d): memory nodes and CPU cores spread across the chip to
//!   distribute traffic, as in prior work (Kayiran+ MICRO'14, BiNoCHS).
//!
//! The generators are parameterized over grid size and node counts so the
//! paper's node-count (10×10, 12×12) and node-mix sensitivity studies can
//! reuse them.

use crate::config::{ConfigError, LayoutKind};
use crate::ids::{CoreId, MemId, NodeId};
use std::fmt;

/// What occupies a grid position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A GPU core (SM + private L1).
    Gpu(CoreId),
    /// A CPU core (latency-sensitive).
    Cpu(CoreId),
    /// A memory node: one LLC slice + one memory controller.
    Mem(MemId),
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Gpu(c) => write!(f, "G{}", c.0),
            NodeKind::Cpu(c) => write!(f, "C{}", c.0),
            NodeKind::Mem(m) => write!(f, "M{}", m.0),
        }
    }
}

/// A fully-resolved chip layout: grid dimensions plus the kind of every
/// node, with dense per-kind core numbering in row-major encounter order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    kind: LayoutKind,
    width: usize,
    height: usize,
    nodes: Vec<NodeKind>,
    gpu_nodes: Vec<NodeId>,
    cpu_nodes: Vec<NodeId>,
    mem_nodes: Vec<NodeId>,
}

impl Layout {
    /// Build a layout.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Grid`] if `n_gpu + n_cpu + n_mem != width * height`,
    /// or if the chosen generator cannot place the counts (e.g. more
    /// memory nodes than columns for [`LayoutKind::EdgeB`]).
    pub fn build(
        kind: LayoutKind,
        width: usize,
        height: usize,
        n_gpu: usize,
        n_cpu: usize,
        n_mem: usize,
    ) -> Result<Self, ConfigError> {
        let place = |why| ConfigError::Grid(width, height, why);
        let nodes = n_gpu.checked_add(n_cpu).and_then(|n| n.checked_add(n_mem));
        if nodes != Some(width * height) {
            return Err(place("node counts must tile the grid"));
        }
        let raw = match kind {
            LayoutKind::Baseline => assign_baseline(width, height, n_cpu, n_mem),
            LayoutKind::EdgeB => assign_edge_b(width, height, n_cpu, n_mem),
            LayoutKind::ClusteredC => assign_clustered_c(width, height, n_cpu, n_mem),
            LayoutKind::DistributedD => assign_distributed_d(width, height, n_cpu, n_mem),
        }
        .map_err(place)?;
        // Densely number each kind in row-major encounter order.
        let (mut g, mut c, mut m) = (0u16, 0u16, 0u16);
        let mut nodes = Vec::with_capacity(raw.len());
        let (mut gpu_nodes, mut cpu_nodes, mut mem_nodes) = (vec![], vec![], vec![]);
        for (i, r) in raw.iter().enumerate() {
            let id = NodeId(i as u16);
            nodes.push(match r {
                RawKind::Gpu => {
                    gpu_nodes.push(id);
                    g += 1;
                    NodeKind::Gpu(CoreId(g - 1))
                }
                RawKind::Cpu => {
                    cpu_nodes.push(id);
                    c += 1;
                    NodeKind::Cpu(CoreId(c - 1))
                }
                RawKind::Mem => {
                    mem_nodes.push(id);
                    m += 1;
                    NodeKind::Mem(MemId(m - 1))
                }
            });
        }
        assert_eq!(gpu_nodes.len(), n_gpu, "{kind:?} placed wrong GPU count");
        assert_eq!(cpu_nodes.len(), n_cpu, "{kind:?} placed wrong CPU count");
        assert_eq!(mem_nodes.len(), n_mem, "{kind:?} placed wrong mem count");
        Ok(Layout {
            kind,
            width,
            height,
            nodes,
            gpu_nodes,
            cpu_nodes,
            mem_nodes,
        })
    }

    /// Which layout family this is.
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Grid width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The kind of node at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kind_of(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()]
    }

    /// Grid coordinates `(x, y)` = (column, row) of a node.
    pub fn coords(&self, id: NodeId) -> (usize, usize) {
        (id.index() % self.width, id.index() / self.width)
    }

    /// The node at grid coordinates `(x, y)`.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.width && y < self.height);
        NodeId((y * self.width + x) as u16)
    }

    /// All GPU nodes, in dense [`CoreId`] order.
    pub fn gpu_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.gpu_nodes.iter().copied()
    }

    /// All CPU nodes, in dense [`CoreId`] order.
    pub fn cpu_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.cpu_nodes.iter().copied()
    }

    /// All memory nodes, in dense [`MemId`] order.
    pub fn mem_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.mem_nodes.iter().copied()
    }

    /// The node hosting GPU core `c`.
    pub fn gpu_node(&self, c: CoreId) -> NodeId {
        self.gpu_nodes[c.index()]
    }

    /// The node hosting CPU core `c`.
    pub fn cpu_node(&self, c: CoreId) -> NodeId {
        self.cpu_nodes[c.index()]
    }

    /// The node hosting memory node `m`.
    pub fn mem_node(&self, m: MemId) -> NodeId {
        self.mem_nodes[m.index()]
    }

    /// Manhattan hop distance between two nodes on the mesh.
    pub fn mesh_hops(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Render the grid as ASCII art (one row per line), for debugging and
    /// the layout-explorer example.
    pub fn ascii(&self) -> String {
        let mut s = String::new();
        for y in 0..self.height {
            for x in 0..self.width {
                let k = self.kind_of(self.node_at(x, y));
                let ch = match k {
                    NodeKind::Gpu(_) => 'G',
                    NodeKind::Cpu(_) => 'C',
                    NodeKind::Mem(_) => 'M',
                };
                s.push(ch);
                if x + 1 < self.width {
                    s.push(' ');
                }
            }
            s.push('\n');
        }
        s
    }
}

#[derive(Clone, Copy, PartialEq)]
enum RawKind {
    Gpu,
    Cpu,
    Mem,
}

/// A generator's grid, or the placement rule the counts break.
type Placed = Result<Vec<RawKind>, &'static str>;

/// `Err(why)` unless the placement rule holds.
fn fits(holds: bool, why: &'static str) -> Result<(), &'static str> {
    holds.then_some(()).ok_or(why)
}

/// Baseline (Fig. 1a): CPU columns left, memory column(s) in the middle,
/// GPU columns right. CPU cells fill column-major from the left; memory
/// cells fill the next column(s) top-down; everything else is GPU.
fn assign_baseline(w: usize, h: usize, n_cpu: usize, n_mem: usize) -> Placed {
    let mut grid = vec![RawKind::Gpu; w * h];
    let mut placed_cpu = 0;
    let mut col = 0;
    'cpu: for x in 0..w {
        for y in 0..h {
            if placed_cpu == n_cpu {
                break 'cpu;
            }
            grid[y * w + x] = RawKind::Cpu;
            placed_cpu += 1;
            col = x;
        }
    }
    // Memory starts in the first column after the last (possibly
    // partially-filled) CPU column.
    let mem_start_col = if n_cpu == 0 { 0 } else { col + 1 };
    let mut placed_mem = 0;
    'mem: for x in mem_start_col..w {
        for y in 0..h {
            if placed_mem == n_mem {
                break 'mem;
            }
            grid[y * w + x] = RawKind::Mem;
            placed_mem += 1;
        }
    }
    fits(placed_mem == n_mem, "layout a: no room for memory column")?;
    Ok(grid)
}

/// Layout B (Fig. 1b): memory nodes occupy the top row left-to-right;
/// below it, CPU columns fill from the left, the remainder of a mixed
/// column is GPU, and the rest is GPU.
fn assign_edge_b(w: usize, h: usize, n_cpu: usize, n_mem: usize) -> Placed {
    fits(n_mem <= w, "layout b: memory overflows the top row")?;
    let mut grid = vec![RawKind::Gpu; w * h];
    for cell in grid.iter_mut().take(n_mem) {
        *cell = RawKind::Mem;
    }
    let mut placed = 0;
    'cpu: for x in 0..w {
        for y in 1..h {
            if placed == n_cpu {
                break 'cpu;
            }
            grid[y * w + x] = RawKind::Cpu;
            placed += 1;
        }
    }
    fits(placed == n_cpu, "layout b: no room for the CPU columns")?;
    Ok(grid)
}

/// Layout C (Fig. 1c): a square-ish CPU cluster in the top-left corner and
/// a block of memory nodes directly below it (4 columns wide on the
/// baseline, so vertical GPU traffic multiplexes onto 4 links).
fn assign_clustered_c(w: usize, h: usize, n_cpu: usize, n_mem: usize) -> Placed {
    let mut grid = vec![RawKind::Gpu; w * h];
    // CPU cluster: smallest square that holds n_cpu, filled row-major.
    let side = (n_cpu as f64).sqrt().ceil() as usize;
    let side = side.min(w);
    let mut placed = 0;
    let mut cluster_rows = 0;
    'cpu: for y in 0..h {
        for x in 0..side {
            if placed == n_cpu {
                break 'cpu;
            }
            grid[y * w + x] = RawKind::Cpu;
            placed += 1;
            cluster_rows = y + 1;
        }
    }
    fits(placed == n_cpu, "layout c: no room for the CPU cluster")?;
    // Memory block below the cluster, `side` columns wide.
    let mut placed_mem = 0;
    'mem: for y in cluster_rows..h {
        for x in 0..side {
            if placed_mem == n_mem {
                break 'mem;
            }
            grid[y * w + x] = RawKind::Mem;
            placed_mem += 1;
        }
    }
    fits(placed_mem == n_mem, "layout c: no room for memory block")?;
    Ok(grid)
}

/// Layout D (Fig. 1d): memory nodes one per row alternating between a
/// left-of-center and right-of-center column; CPU cores spread evenly
/// over the remaining cells; GPUs elsewhere.
fn assign_distributed_d(w: usize, h: usize, n_cpu: usize, n_mem: usize) -> Placed {
    // Two columns hold the memory nodes, at most one per row each; with
    // more, the loop below would never finish.
    fits(n_mem <= 2 * h, "layout d: too many memory nodes")?;
    let mut grid = vec![RawKind::Gpu; w * h];
    let (lc, rc) = (w / 4, w - 1 - w / 4);
    let mut placed_mem = 0;
    let mut y = 0;
    while placed_mem < n_mem {
        let x = if (y / h).is_multiple_of(2) {
            // first pass: alternate left/right per row
            if y % 2 == 0 {
                lc
            } else {
                rc
            }
        } else {
            // additional passes (n_mem > h): swap sides
            if y % 2 == 0 {
                rc
            } else {
                lc
            }
        };
        let cell = (y % h) * w + x;
        if grid[cell] == RawKind::Gpu {
            grid[cell] = RawKind::Mem;
            placed_mem += 1;
        }
        y += 1;
    }
    // Spread CPUs with an even stride over the remaining cells.
    let free: Vec<usize> = (0..w * h).filter(|&i| grid[i] == RawKind::Gpu).collect();
    fits(free.len() >= n_cpu, "layout d: no room for the CPUs")?;
    for k in 0..n_cpu {
        let idx = k * free.len() / n_cpu + free.len() / (2 * n_cpu);
        grid[free[idx]] = RawKind::Cpu;
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(l: &Layout) -> (usize, usize, usize) {
        (
            l.gpu_nodes().count(),
            l.cpu_nodes().count(),
            l.mem_nodes().count(),
        )
    }

    #[test]
    fn baseline_matches_paper() {
        let l = Layout::build(LayoutKind::Baseline, 8, 8, 40, 16, 8).unwrap();
        assert_eq!(counts(&l), (40, 16, 8));
        // Memory nodes form column 2 (between CPUs and GPUs).
        for m in l.mem_nodes() {
            assert_eq!(l.coords(m).0, 2);
        }
        // CPUs live strictly left of memory, GPUs strictly right.
        for c in l.cpu_nodes() {
            assert!(l.coords(c).0 < 2);
        }
        for g in l.gpu_nodes() {
            assert!(l.coords(g).0 > 2);
        }
    }

    #[test]
    fn edge_b_matches_paper() {
        let l = Layout::build(LayoutKind::EdgeB, 8, 8, 40, 16, 8).unwrap();
        assert_eq!(counts(&l), (40, 16, 8));
        // All memory nodes in the top row.
        for m in l.mem_nodes() {
            assert_eq!(l.coords(m).1, 0);
        }
        // Two full CPU columns plus 2 cores in a mixed column.
        let mixed: Vec<_> = l.cpu_nodes().filter(|&c| l.coords(c).0 == 2).collect();
        assert_eq!(mixed.len(), 2);
    }

    #[test]
    fn clustered_c_matches_paper() {
        let l = Layout::build(LayoutKind::ClusteredC, 8, 8, 40, 16, 8).unwrap();
        assert_eq!(counts(&l), (40, 16, 8));
        // CPU cluster is the 4x4 top-left block.
        for c in l.cpu_nodes() {
            let (x, y) = l.coords(c);
            assert!(x < 4 && y < 4, "CPU at ({x},{y}) outside cluster");
        }
        // Memory block spans 4 columns (rows 4-5), so vertical GPU traffic
        // multiplexes onto 4 links.
        for m in l.mem_nodes() {
            let (x, y) = l.coords(m);
            assert!(x < 4 && (y == 4 || y == 5));
        }
    }

    #[test]
    fn distributed_d_spreads_nodes() {
        let l = Layout::build(LayoutKind::DistributedD, 8, 8, 40, 16, 8).unwrap();
        assert_eq!(counts(&l), (40, 16, 8));
        // One memory node per row.
        for y in 0..8 {
            let in_row = l.mem_nodes().filter(|&m| l.coords(m).1 == y).count();
            assert_eq!(in_row, 1, "row {y}");
        }
        // CPUs are not all in one half of the chip.
        let left = l.cpu_nodes().filter(|&c| l.coords(c).0 < 4).count();
        assert!((4..=12).contains(&left), "CPUs clumped: {left} on the left");
    }

    #[test]
    fn scaled_meshes_build() {
        for (w, h) in [(10, 10), (12, 12)] {
            let n = w * h;
            let (mem, cpu) = (h, 2 * h);
            let gpu = n - mem - cpu;
            for kind in [
                LayoutKind::Baseline,
                LayoutKind::EdgeB,
                LayoutKind::ClusteredC,
                LayoutKind::DistributedD,
            ] {
                let l = Layout::build(kind, w, h, gpu, cpu, mem).unwrap();
                assert_eq!(counts(&l), (gpu, cpu, mem), "{kind:?} {w}x{h}");
            }
        }
    }

    #[test]
    fn node_mix_variants_build() {
        // Section VII node-mix sweep on the baseline layout.
        for (gpu, cpu, mem) in [(48, 8, 8), (32, 24, 8), (52, 8, 4), (40, 8, 16)] {
            let l = Layout::build(LayoutKind::Baseline, 8, 8, gpu, cpu, mem).unwrap();
            assert_eq!(counts(&l), (gpu, cpu, mem));
        }
    }

    #[test]
    fn core_numbering_is_dense_and_stable() {
        let l = Layout::build(LayoutKind::Baseline, 8, 8, 40, 16, 8).unwrap();
        for (i, n) in l.gpu_nodes().enumerate() {
            assert_eq!(l.kind_of(n), NodeKind::Gpu(CoreId(i as u16)));
            assert_eq!(l.gpu_node(CoreId(i as u16)), n);
        }
        for (i, n) in l.mem_nodes().enumerate() {
            assert_eq!(l.kind_of(n), NodeKind::Mem(MemId(i as u16)));
        }
    }

    #[test]
    fn coords_round_trip() {
        let l = Layout::build(LayoutKind::Baseline, 8, 8, 40, 16, 8).unwrap();
        for i in 0..64 {
            let n = NodeId(i);
            let (x, y) = l.coords(n);
            assert_eq!(l.node_at(x, y), n);
        }
    }

    #[test]
    fn ascii_renders_grid() {
        let l = Layout::build(LayoutKind::Baseline, 8, 8, 40, 16, 8).unwrap();
        let art = l.ascii();
        assert_eq!(art.lines().count(), 8);
        assert!(art.lines().next().unwrap().starts_with("C C M G"));
    }

    #[test]
    fn mesh_hops_is_manhattan() {
        let l = Layout::build(LayoutKind::Baseline, 8, 8, 40, 16, 8).unwrap();
        assert_eq!(l.mesh_hops(l.node_at(0, 0), l.node_at(3, 4)), 7);
        assert_eq!(l.mesh_hops(l.node_at(5, 5), l.node_at(5, 5)), 0);
    }
}
