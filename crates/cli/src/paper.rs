//! `clognet paper`: every table and figure of the paper's evaluation as
//! one row of one table, `ROWS`.
//!
//! A row holds its `--figures` id, its heading, the paper's claim, and a
//! body that reads its jobs' reports from a `Sheet` and prints them.
//! Each body runs twice. The planning pass records every job it reads
//! and gets blank reports back; no row chooses a job by a measured
//! value, so the pass sees the row's whole grid. The command then
//! simulates each distinct job of the selected rows once, through
//! [`measure`] on the parallel runner. The printing pass hands each
//! read the report that the job's [`job_fingerprint`] keys, so rows that
//! share a job share its simulation (Figs 12 and 13 read the same 66),
//! and no row depends on the order in which jobs run.
//!
//! Absolute numbers differ from the paper: the substrate is this
//! simulator with synthetic workloads, not GPGPU-sim running CUDA
//! binaries. The *shape* is the target: who wins, by roughly what
//! factor, where the crossovers fall. `EXPERIMENTS.md` records paper vs
//! measured.

use crate::args::{Args, ParseArgsError};
use crate::driver::measure;
use clognet_bench::runner::{default_threads, run_jobs};
use clognet_core::Report;
use clognet_energy::{energy, DrArea, NetShape};
use clognet_proto::{
    job_fingerprint, CacheGeometry, CtaSched, Knob, L1Org, LayoutKind, RoutingPolicy, Scheme,
    SystemConfig, Topology, VirtualNetConfig,
};
use clognet_workloads::{cpu_benchmarks, gpu_benchmark, TABLE2};
use std::collections::{HashMap, HashSet};

/// One job a row reads: a config and the GPU and CPU benchmarks it runs.
type Spec = (SystemConfig, &'static str, &'static str);

/// A workload pairing: GPU benchmark, CPU benchmark.
type Pair = (&'static str, &'static str);

/// One artifact of the paper's evaluation.
struct Row {
    /// The `--figures` id.
    id: &'static str,
    /// The heading its block opens with.
    heading: &'static str,
    /// What the paper reports.
    claim: &'static str,
    /// Reads the row's reports from the sheet and prints them.
    body: fn(&mut Sheet),
}

/// What a row body reads reports from and prints to.
struct Sheet<'a> {
    warm: u64,
    cycles: u64,
    /// The measured reports by job fingerprint; `None` while planning.
    measured: Option<&'a HashMap<u64, Report>>,
    /// The jobs read while planning, in read order.
    planned: Vec<Spec>,
    out: String,
}

impl<'a> Sheet<'a> {
    fn new(warm: u64, cycles: u64, measured: Option<&'a HashMap<u64, Report>>) -> Self {
        Sheet {
            warm,
            cycles,
            measured,
            planned: Vec::new(),
            out: String::new(),
        }
    }

    /// The report of `gpu`+`cpu` under `cfg`: blank while planning (the
    /// job is recorded), the measured one while printing.
    fn report(&mut self, cfg: SystemConfig, gpu: &'static str, cpu: &'static str) -> Report {
        let Some(measured) = self.measured else {
            self.planned.push((cfg, gpu, cpu));
            return Report::default();
        };
        let key = job_fingerprint(&cfg, gpu, cpu, self.warm, self.cycles);
        measured.get(&key).expect("planned and measured").clone()
    }

    fn line(&mut self, text: impl std::fmt::Display) {
        self.out += &format!("{text}\n");
    }
}

/// Every row, in the order `clognet paper` prints them.
static ROWS: [Row; 20] = [
    Row {
        id: "tab1",
        heading: "Table I",
        claim: "simulated CPU-GPU architecture parameters",
        body: tab1,
    },
    Row {
        id: "tab2",
        heading: "Table II",
        claim: "33 heterogeneous CPU-GPU workloads",
        body: tab2,
    },
    Row {
        id: "fig02",
        heading: "Figure 2",
        claim: "more than 57% of L1 misses are duplicated in remote L1s on average; \
                2DCON/HS/NN are highest",
        body: fig02,
    },
    Row {
        id: "fig05",
        heading: "Figure 5",
        claim: "topology changes barely move GPU perf (all stay blocked); 2x bandwidth helps",
        body: fig05,
    },
    Row {
        id: "fig06",
        heading: "Figure 6",
        claim: "AVCP improves best case ~3%, HM unaffected; BP gets worse",
        body: fig06,
    },
    Row {
        id: "fig07",
        heading: "Figure 7",
        claim: "adaptive routing reduces performance vs CDR",
        body: fig07,
    },
    Row {
        id: "fig09",
        heading: "Figure 9",
        claim: "baseline layout + YX-XY CDR gives both good GPU and CPU performance",
        body: fig09,
    },
    Row {
        id: "fig10",
        heading: "Figure 10",
        claim: "DR improves GPU performance 25.7% avg (up to 65.9%) over baseline and \
                14.2% avg (up to 30.6%) over RP",
        body: fig10,
    },
    Row {
        id: "fig11",
        heading: "Figure 11",
        claim: "DR improves received data rate 26.5% avg (up to 70.9%); RP 11.9%",
        body: fig11,
    },
    Row {
        id: "fig12",
        heading: "Figure 12",
        claim: "DR reduces CPU network latency 44.2% avg (up to 59.7%)",
        body: fig12,
    },
    Row {
        id: "fig13",
        heading: "Figure 13",
        claim: "DR improves CPU performance 3.8% avg overall; 8.8% avg (up to 19.8%) on \
                clogged workloads",
        body: fig13,
    },
    Row {
        id: "fig14",
        heading: "Figure 14",
        claim: "54.8% of L1 misses forwarded to remote cores; 74.4% of those hit remotely; \
                3DCON/BT/LPS show remote misses; 4.8% of FRQ entries share a line",
        body: fig14,
    },
    Row {
        id: "fig15",
        heading: "Figure 15",
        claim: "DynEB+RR improves over baseline; DC-L1 helps SC/LUD but hurts NN/2DCON; \
                DR on DynEB adds 23.5% (RR) / 9.9% (distributed)",
        body: fig15,
    },
    Row {
        id: "fig16",
        heading: "Figure 16",
        claim: "DR gains 21.9-28.3% on fbfly/dragonfly/crossbar vs 25.8% on the mesh",
        body: fig16,
    },
    Row {
        id: "fig17",
        heading: "Figure 17",
        claim: "DR improves GPU performance on every layout: 25.8/25.3/29.0/27.0%",
        body: fig17,
    },
    Row {
        id: "fig18",
        heading: "Figure 18",
        claim: "DR improves CPU perf most on layouts B and D (13.4% / 20.9%) where \
                CPU-GPU interference is highest",
        body: fig18,
    },
    Row {
        id: "fig19",
        heading: "Figure 19",
        claim: "DR helps across the whole design space: more for small L1s and narrow NoCs, \
                insensitive to LLC size and injection-buffer depth",
        body: fig19,
    },
    Row {
        id: "nodemix",
        heading: "Node mix (Section VII)",
        claim: "30.5/25.8/22.6% with 8/16/24 CPUs; 38.2/30.5/10.7% with 4/8/16 memory nodes",
        body: nodemix,
    },
    Row {
        id: "energy",
        heading: "Energy & area",
        claim: "2x-bandwidth mesh costs 2.5x area (5.76 vs 2.27 mm2); DR adds 0.172 mm2 \
                (~5% of the 2x overhead); DR cuts total energy 13.6% (RP 7.4%), \
                NoC dynamic energy: DR -1.1%, RP +9.4%",
        body: energy_area,
    },
    Row {
        id: "ablation",
        heading: "Ablation: DR design choices",
        claim: "the paper's design (delegate-on-block, delayed hits, 8-entry FRQ) \
                should dominate or match each ablated variant",
        body: ablation,
    },
];

/// The rows `--figures` names (every row without it), in table order.
///
/// # Errors
///
/// Names the valid ids when an id is unknown.
fn select(figures: Option<&str>) -> Result<Vec<&'static Row>, ParseArgsError> {
    let Some(list) = figures else {
        return Ok(ROWS.iter().collect());
    };
    let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
    if let Some(bad) = wanted.iter().find(|&&w| ROWS.iter().all(|r| r.id != w)) {
        let ids = ROWS.iter().map(|r| r.id).collect::<Vec<_>>().join(", ");
        let msg = format!("unknown figure `{bad}`; valid ids: {ids}");
        return Err(ParseArgsError(msg));
    }
    Ok(ROWS.iter().filter(|r| wanted.contains(&r.id)).collect())
}

/// Every distinct job `rows` read at `warm` + `cycles`, with its
/// fingerprint, in first-read order, and how many reads there were.
fn plan(rows: &[&Row], warm: u64, cycles: u64) -> (Vec<(u64, Spec)>, usize) {
    let mut sheet = Sheet::new(warm, cycles, None);
    for row in rows {
        (row.body)(&mut sheet);
    }
    let requested = sheet.planned.len();
    let mut seen = HashSet::new();
    let jobs = sheet.planned.into_iter().filter_map(|spec| {
        let key = job_fingerprint(&spec.0, spec.1, spec.2, warm, cycles);
        seen.insert(key).then_some((key, spec))
    });
    (jobs.collect(), requested)
}

/// Simulate each of `jobs` (from [`plan`]) once on `threads` workers and
/// print `rows` from the reports, each under its banner.
fn render(rows: &[&Row], warm: u64, cycles: u64, jobs: Vec<(u64, Spec)>, threads: usize) -> String {
    let run =
        |(key, (cfg, gpu, cpu)): (u64, Spec)| (key, measure(cfg, gpu, cpu, warm, cycles, true));
    let measured: HashMap<u64, Report> = run_jobs(jobs, threads, run).into_iter().collect();
    let mut sheet = Sheet::new(warm, cycles, Some(&measured));
    let budget = format!("(warm {warm} + run {cycles} cycles per configuration)");
    for row in rows {
        let (heading, claim) = (row.heading, row.claim);
        sheet.line(format!("\n=== {heading} ===\npaper: {claim}\n{budget}"));
        (row.body)(&mut sheet);
    }
    sheet.out
}

/// `clognet paper`: print the `--figures` rows (all by default) at
/// `--warm` + `--cycles` per job.
///
/// # Errors
///
/// Fails on an unknown option or figure id, or a bad number.
pub fn cmd_paper(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&["figures", "warm", "cycles", "threads"])?;
    let rows = select(args.get("figures"))?;
    let warm = args.get_num("warm", 10_000u64)?;
    let cycles = args.get_num("cycles", 25_000u64)?;
    let threads = args.get_at_least("threads", default_threads(), 1)?;
    let (jobs, requested) = plan(&rows, warm, cycles);
    let (n, distinct) = (rows.len(), jobs.len());
    eprintln!("paper: {n} rows read {requested} jobs; simulating {distinct} on {threads} threads");
    print!("{}", render(&rows, warm, cycles, jobs, threads));
    Ok(())
}

/// Geometric mean (0 for no values).
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Harmonic mean (0 for no values); the paper reports it for Fig 6.
fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn min_avg_max(xs: &[f64]) -> (f64, f64, f64) {
    let min = xs.iter().copied().fold(f64::MAX, f64::min);
    (min, mean(xs), xs.iter().copied().fold(0.0, f64::max))
}

fn ipc(r: &Report) -> f64 {
    r.gpu_ipc
}

/// Each Table II GPU benchmark with its first CPU co-runner.
fn firsts() -> Vec<Pair> {
    TABLE2.iter().map(|p| (p.gpu, p.cpus[0])).collect()
}

/// The representative subset of [`firsts`] the wide sensitivity sweeps
/// use, spanning high and low locality and read/write mixes.
fn sensitivity_pairs() -> Vec<Pair> {
    let benches = ["HS", "3DCON", "MM", "BP"];
    firsts()
        .into_iter()
        .filter(|p| benches.contains(&p.0))
        .collect()
}

/// The reports of every pair under every config, `[config][pair]`.
fn grid(s: &mut Sheet, cfgs: &[SystemConfig], pairs: &[Pair]) -> Vec<Vec<Report>> {
    let mut grid = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        let row = pairs
            .iter()
            .map(|&(gpu, cpu)| s.report(cfg.clone(), gpu, cpu));
        grid.push(row.collect());
    }
    grid
}

/// Each report's `metric` over the same pair's in `base`.
fn over(row: &[Report], base: &[Report], metric: fn(&Report) -> f64) -> Vec<f64> {
    row.iter()
        .zip(base)
        .map(|(r, b)| metric(r) / metric(b))
        .collect()
}

/// `cfg` under each of `schemes`.
fn schemes<const N: usize>(cfg: &SystemConfig, schemes: [Scheme; N]) -> [SystemConfig; N] {
    schemes.map(|scheme| cfg.clone().with_scheme(scheme))
}

const BASE_DR: [Scheme; 2] = [Scheme::Baseline, Scheme::DelegatedReplies];

/// The baseline, DR and RP, in the order Figs 10 and 11 and the energy
/// table read them.
const BASE_DR_RP: [Scheme; 3] = [BASE_DR[0], BASE_DR[1], Scheme::rp_default()];

/// DR's GPU performance over the baseline's on `cfg`, geomean over `pairs`.
fn dr_gain(s: &mut Sheet, cfg: &SystemConfig, pairs: &[Pair]) -> f64 {
    let g = grid(s, &schemes(cfg, BASE_DR), pairs);
    geomean(&over(&g[1], &g[0], ipc))
}

/// [`dr_gain`] over the sensitivity pairs on the default config as
/// `mutate` changes it.
fn sensitivity(s: &mut Sheet, mutate: impl FnOnce(&mut SystemConfig)) -> f64 {
    let mut cfg = SystemConfig::default();
    mutate(&mut cfg);
    dr_gain(s, &cfg, &sensitivity_pairs())
}

/// `cfg` on `topo`. Non-mesh topologies route minimally: CDR's
/// dimension orders apply to the mesh only.
fn on_topology(mut cfg: SystemConfig, topo: Topology) -> SystemConfig {
    cfg.noc.topology = topo;
    if topo != Topology::Mesh {
        cfg.noc.routing_request = RoutingPolicy::DorXY;
        cfg.noc.routing_reply = RoutingPolicy::DorXY;
    }
    cfg
}

/// The default config on `layout` with that layout's best routing.
fn on_layout(layout: LayoutKind) -> SystemConfig {
    let (req, rep) = SystemConfig::best_routing_for(layout);
    let mut cfg = SystemConfig::default().with_routing(req, rep);
    cfg.layout = layout;
    cfg
}

/// SIMT width of a warp. Only Table I prints it: the simulator issues
/// whole warp instructions and never models lanes.
const THREADS_PER_WARP: usize = 32;

/// Table I: the active configuration, so every run documents it.
fn tab1(s: &mut Sheet) {
    let c = SystemConfig::default();
    let (g, l1, cpu_l1, llc, d, noc) =
        (&c.gpu, &c.gpu.l1, &c.cpu.l1, &c.llc.slice, &c.dram, &c.noc);
    s.line(format!(
        "GPU cores   : {} SIMT cores, {} warps/core, {} threads/warp, {} GTO schedulers",
        c.n_gpu, g.warps_per_core, THREADS_PER_WARP, g.issue_width
    ));
    s.line(format!(
        "GPU L1      : {} KB, {}-way, LRU, {} B lines, {} MSHRs, {}-entry FRQ",
        l1.capacity_bytes / 1024,
        l1.ways,
        l1.line_bytes,
        g.mshrs,
        g.frq_entries
    ));
    s.line(format!(
        "CPU cores   : {} cores, {} KB L1, {}-way, {} B lines, MESI-domain home-node coherence",
        c.n_cpu,
        cpu_l1.capacity_bytes / 1024,
        cpu_l1.ways,
        cpu_l1.line_bytes
    ));
    let (total, mib) = (llc.capacity_bytes * c.n_mem as u64, 1024 * 1024);
    s.line(format!(
        "Shared LLC  : {} MB total, {} MB/MC, {}-way, LRU, {} B lines",
        total / mib,
        llc.capacity_bytes / mib,
        llc.ways,
        llc.line_bytes
    ));
    s.line(format!(
        "DRAM        : {} MCs, FR-FCFS (CPU priority), {} banks/MC, burst {} cy/line",
        c.n_mem, d.banks, d.burst
    ));
    s.line(format!(
        "GDDR5       : tCL={} tRP={} tRC={} tRAS={} tRCD={} tRRD={} tCCD={} tWR={}",
        d.t_cl, d.t_rp, d.t_rc, d.t_ras, d.t_rcd, d.t_rrd, d.t_ccd, d.t_wr
    ));
    let (req, rep) = (noc.routing_request.label(), noc.routing_reply.label());
    s.line(format!(
        "NoC         : {}x{} 2D mesh, CDR routing ({req}-req/{rep}-rep), iSLIP, CPU priority",
        c.mesh_width, c.mesh_height
    ));
    s.line(format!(
        "              {}-bit channels, {} VCs, {} flits/VC, {}-stage routers, {} pkt inj buf",
        noc.channel_bytes * 8,
        noc.vcs,
        noc.vc_buf_flits,
        noc.pipeline,
        noc.mem_inj_buf_pkts
    ));
    // Bisection bandwidth: 8 column-cut links x 2 directions x width x 1.4GHz.
    let bisection = 2.0 * c.mesh_height as f64 * noc.channel_bytes as f64 * 1.4;
    s.line(format!(
        "              bisection bandwidth {bisection:.0} GB/s (paper: 358 GB/s)"
    ));
    s.line(format!("layout (Fig 1a):\n{}", c.layout().ascii()));
}

/// Table II: the heterogeneous CPU-GPU workload pairings.
fn tab2(s: &mut Sheet) {
    let row = |[a, b, c, d, e]: [&str; 5]| format!("{a:<7} {b:<14} {c:<14} {d:<14} {e:<14}");
    s.line(row(["GPU", "grid", "CPU #1", "CPU #2", "CPU #3"]));
    for p in TABLE2 {
        let grid = format!("{:?}", gpu_benchmark(p.gpu).expect("Table II").grid_dim);
        s.line(row([p.gpu, &grid, p.cpus[0], p.cpus[1], p.cpus[2]]));
    }
}

/// Figure 2: inter-core locality, the share of L1 misses whose line some
/// remote L1 holds at miss time (an oracle probe of every tag array).
fn fig02(s: &mut Sheet) {
    s.line("bench     locality     L1miss");
    let g = grid(s, &[SystemConfig::default()], &firsts());
    let mut sum = 0.0;
    for ((gpu, _), r) in firsts().into_iter().zip(&g[0]) {
        let (locality, miss) = (r.oracle_locality * 100.0, r.l1_miss_rate * 100.0);
        s.line(format!("{gpu:<7} {locality:>9.1}% {miss:>9.1}%"));
        sum += r.oracle_locality;
    }
    let avg = sum / TABLE2.len() as f64 * 100.0;
    s.line(format!("AVG     {avg:>9.1}%   (paper: >57%)"));
}

/// Figure 5: every topology still funnels replies through one memory-node
/// link; doubling the bandwidth helps. GPU perf over the 1x mesh, and
/// the memory-node blocking rate (5b).
fn fig05(s: &mut Sheet) {
    let (mut labels, mut cfgs) = (Vec::new(), Vec::new());
    for topo in Topology::ALL {
        for (suffix, width) in [("", 16), ("-2x", 32)] {
            let mut cfg = on_topology(SystemConfig::default(), topo);
            cfg.noc.channel_bytes = width;
            labels.push(format!("{}{suffix}", topo.label()));
            cfgs.push(cfg);
        }
    }
    let g = grid(s, &cfgs, &firsts());
    s.line("config         GPU perf   blocked%");
    for (label, row) in labels.iter().zip(&g) {
        let perf = geomean(&over(row, &g[0], ipc));
        let blocked = mean(&row.iter().map(|r| r.mem_blocked_rate).collect::<Vec<_>>()) * 100.0;
        s.line(format!("{label:<12} {perf:>10.3} {blocked:>9.1}%"));
    }
    s.line("(paper: all 1x topologies ~1.0 and blocked; 2x configs clearly faster)");
}

/// Figure 6: Asymmetric VC Partitioning (1+3 VCs vs 2+2 on one physical
/// network). The clogged links' bandwidth, not the VC count, is the limit.
fn fig06(s: &mut Sheet) {
    let vnets = |request_vcs, reply_vcs| {
        let mut cfg = SystemConfig::default();
        cfg.noc.virtual_nets = Some(VirtualNetConfig {
            request_vcs,
            reply_vcs,
        });
        cfg
    };
    let g = grid(s, &[vnets(2, 2), vnets(1, 3)], &firsts());
    let ratios = over(&g[1], &g[0], ipc);
    s.line("bench    AVCP/base");
    for ((gpu, _), ratio) in firsts().into_iter().zip(&ratios) {
        s.line(format!("{gpu:<7} {ratio:>10.3}"));
    }
    s.line(format!(
        "HM      {:>10.3}  (paper: ~1.00)",
        harmonic_mean(&ratios)
    ));
}

/// Figure 7: adaptive routing vs CDR. With no request-side imbalance and
/// every reply path clogged, the adaptive overhead is pure loss.
fn fig07(s: &mut Sheet) {
    use RoutingPolicy::{DyXY, Footprint, Hare};
    let mut cfgs = vec![SystemConfig::default()];
    cfgs.extend([DyXY, Footprint, Hare].map(|p| SystemConfig::default().with_routing(p, p)));
    let g = grid(s, &cfgs, &firsts());
    s.line("policy       GPU perf");
    for (label, row) in ["CDR", "DyXY", "Footprint", "HARE"].iter().zip(&g) {
        s.line(format!(
            "{label:<10} {:>10.3}",
            geomean(&over(row, &g[0], ipc))
        ));
    }
    s.line("(paper: adaptive schemes land below 1.0)");
}

/// Figure 9: chip layout x routing policy (Section V), over every other
/// workload.
fn fig09(s: &mut Sheet) {
    use LayoutKind::{Baseline, ClusteredC, DistributedD, EdgeB};
    use RoutingPolicy::{DorXY, DorYX};
    let configs = [
        ("Base YX-XY", Baseline, DorYX, DorXY),
        ("Base XY-XY", Baseline, DorXY, DorXY),
        ("B XY-YX", EdgeB, DorXY, DorYX),
        ("B XY-XY", EdgeB, DorXY, DorXY),
        ("C XY-YX", ClusteredC, DorXY, DorYX),
        ("C XY-XY", ClusteredC, DorXY, DorXY),
        ("D XY-XY", DistributedD, DorXY, DorXY),
    ];
    let cfgs = configs.map(|(_, layout, req, rep)| on_layout(layout).with_routing(req, rep));
    let g = grid(
        s,
        &cfgs,
        &firsts().into_iter().step_by(2).collect::<Vec<_>>(),
    );
    s.line("config         GPU perf   CPU perf");
    for ((label, ..), row) in configs.iter().zip(&g) {
        let gpu = geomean(&over(row, &g[0], ipc));
        let cpu = geomean(&over(row, &g[0], |r| r.cpu_performance));
        s.line(format!("{label:<12} {gpu:>10.3} {cpu:>10.3}"));
    }
    s.line("(paper: Base YX-XY = 1.0/1.0 reference; B/C trade GPU for CPU, D the reverse)");
}

/// Figure 10, the headline: DR's and RP's GPU performance over the
/// baseline, min/avg/max over each benchmark's three CPU co-runners,
/// and RP's request-traffic inflation (Section IV).
fn fig10(s: &mut Sheet) {
    s.line("bench    DR/base (min avg max)  RP/base (min avg max)");
    let cfgs = schemes(&SystemConfig::default(), BASE_DR_RP);
    let (mut dr_all, mut rp_all, mut inflation) = (Vec::new(), Vec::new(), Vec::new());
    for p in TABLE2 {
        let g = grid(s, &cfgs, &p.cpus.map(|cpu| (p.gpu, cpu)));
        let (dr, rp) = (over(&g[1], &g[0], ipc), over(&g[2], &g[0], ipc));
        inflation.extend(over(&g[2], &g[0], |r| r.request_packets as f64));
        let ((dmin, davg, dmax), (rmin, ravg, rmax)) = (min_avg_max(&dr), min_avg_max(&rp));
        s.line(format!(
            "{:<7} {dmin:>6.3} {davg:>6.3} {dmax:>6.3}   {rmin:>6.3} {ravg:>6.3} {rmax:>6.3}",
            p.gpu
        ));
        dr_all.extend(dr);
        rp_all.extend(rp);
    }
    let (dr, rp, inflation) = (geomean(&dr_all), geomean(&rp_all), mean(&inflation));
    s.line(format!(
        "GEOMEAN DR/base {dr:.3} (paper 1.257)   RP/base {rp:.3} (paper 1.101)"
    ));
    s.line(format!(
        "RP request-traffic inflation x{inflation:.2} (paper: 5.9x)"
    ));
}

/// Figure 11: received data rate per GPU core (flits/cycle). DR moves
/// replies onto inter-GPU links.
fn fig11(s: &mut Sheet) {
    s.line("bench       base       DR       RP     DR/b     RP/b");
    let g = grid(s, &schemes(&SystemConfig::default(), BASE_DR_RP), &firsts());
    let (mut dsum, mut rsum) = (0.0, 0.0);
    for (i, (gpu, _)) in firsts().into_iter().enumerate() {
        let [b, d, r] = [0, 1, 2].map(|k| g[k][i].gpu_rx_rate);
        let (db, rb) = (d / b, r / b);
        s.line(format!(
            "{gpu:<7} {b:>8.3} {d:>8.3} {r:>8.3} {db:>8.3} {rb:>8.3}"
        ));
        dsum += db;
        rsum += rb;
    }
    let n = TABLE2.len() as f64;
    s.line(format!(
        "AVG     DR/base {:.3}  RP/base {:.3}",
        dsum / n,
        rsum / n
    ));
}

/// Each CPU benchmark with the Table II workloads it co-runs in, for
/// every CPU benchmark that has one.
fn by_cpu() -> Vec<(&'static str, Vec<Pair>)> {
    let rows = cpu_benchmarks().into_iter().map(|cb| {
        let gpus = TABLE2.iter().filter(|p| p.cpus.contains(&cb.name));
        (cb.name, gpus.map(|p| (p.gpu, cb.name)).collect::<Vec<_>>())
    });
    rows.filter(|(_, pairs)| !pairs.is_empty()).collect()
}

/// Figure 12: CPU network latency. Draining the memory-node injection
/// buffers lets CPU requests enter and be prioritized.
fn fig12(s: &mut Sheet) {
    s.line("cpu bench           base        DR       min       max");
    let cfgs = schemes(&SystemConfig::default(), BASE_DR);
    for (cpu, pairs) in by_cpu() {
        let g = grid(s, &cfgs, &pairs);
        let lat = |row: &[Report]| mean(&row.iter().map(|r| r.cpu_net_latency).collect::<Vec<_>>());
        let (min, _, max) = min_avg_max(&over(&g[1], &g[0], |r| r.cpu_net_latency));
        let (base, dr) = (lat(&g[0]), lat(&g[1]));
        s.line(format!(
            "{cpu:<14} {base:>9.1} {dr:>9.1} {min:>9.3} {max:>9.3}"
        ));
    }
    s.line("(ratios below 1.0 = latency reduction; paper avg 0.56)");
}

/// Figure 13: CPU performance. Where GPU traffic clogs the memory nodes,
/// DR frees the blocked injection buffers.
fn fig13(s: &mut Sheet) {
    s.line("cpu bench         DR/base        min        max");
    let cfgs = schemes(&SystemConfig::default(), BASE_DR);
    let (mut clogged, mut all) = (Vec::new(), Vec::new());
    for (cpu, pairs) in by_cpu() {
        let g = grid(s, &cfgs, &pairs);
        let ratios = over(&g[1], &g[0], |r| r.cpu_performance);
        for (&ratio, b) in ratios.iter().zip(&g[0]) {
            all.push(ratio);
            if b.mem_blocked_rate > 0.3 {
                clogged.push(ratio);
            }
        }
        let (min, avg, max) = min_avg_max(&ratios);
        s.line(format!("{cpu:<14} {avg:>10.3} {min:>10.3} {max:>10.3}"));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (all, n) = (avg(&all), clogged.len());
    let clogged = avg(&clogged);
    s.line(format!(
        "AVG all workloads {all:.3}; clogged (blocked>30%) {clogged:.3} over {n} workloads"
    ));
}

/// Figure 14: L1 miss breakdown under DR, the pointer hit rate, and the
/// FRQ same-line (merge opportunity) fraction of Section IV.
fn fig14(s: &mut Sheet) {
    s.line("bench       llc%    rhit%   rmiss%  ptr-acc  frq-dup");
    let dr = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    let g = grid(s, &[dr], &firsts());
    let (mut fwd, mut acc_sum) = (0.0, 0.0);
    for ((gpu, _), r) in firsts().into_iter().zip(&g[0]) {
        let b = r.breakdown;
        let pct = |n: u64| n as f64 / b.total().max(1) as f64 * 100.0;
        let (llc, hit, miss) = (pct(b.llc_direct), pct(b.remote_hit), pct(b.remote_miss));
        let (acc, dup) = (b.remote_hit_rate(), r.frq_same_line_fraction * 100.0);
        s.line(format!(
            "{gpu:<7} {llc:>7.1}% {hit:>7.1}% {miss:>7.1}% {acc:>8.3} {dup:>7.1}%"
        ));
        fwd += b.forwarded_fraction();
        acc_sum += acc;
    }
    let (fwd, acc) = (
        fwd / TABLE2.len() as f64 * 100.0,
        acc_sum / TABLE2.len() as f64,
    );
    s.line(format!(
        "AVG forwarded {fwd:.1}% (paper 54.8%), remote-hit accuracy {acc:.3} (paper 0.744)"
    ));
}

/// Figure 15: DR on top of the DC-L1 and DynEB shared L1s and distributed
/// CTA scheduling, which do not remove the clogging.
fn fig15(s: &mut Sheet) {
    use CtaSched::{Distributed, RoundRobin};
    use L1Org::{DcL1, DynEB, Private};
    use Scheme::{Baseline, DelegatedReplies};
    let configs = [
        ("Private", Private, RoundRobin, Baseline),
        ("DC-L1", DcL1, RoundRobin, Baseline),
        ("DynEB", DynEB, RoundRobin, Baseline),
        ("DC-L1+D", DcL1, Distributed, Baseline),
        ("DynEB+D", DynEB, Distributed, Baseline),
        ("DynEB+DR", DynEB, RoundRobin, DelegatedReplies),
        ("DynEB+D+DR", DynEB, Distributed, DelegatedReplies),
    ];
    let cfgs = configs.map(|(_, org, cta, scheme)| {
        let mut cfg = SystemConfig::default().with_scheme(scheme);
        (cfg.l1_org, cfg.cta_sched) = (org, cta);
        cfg
    });
    let g = grid(s, &cfgs, &firsts());
    s.line("config         GPU perf  per-bench");
    for ((label, ..), row) in configs.iter().zip(&g) {
        let perf = over(row, &g[0], ipc);
        let per_bench = firsts().into_iter().zip(&perf);
        let per: String = per_bench
            .map(|((gpu, _), r)| format!(" {gpu}={r:.2}"))
            .collect();
        s.line(format!("{label:<12} {:>10.3} {per}", geomean(&perf)));
    }
}

/// Figure 16: DR across NoC topologies, each over its own baseline.
fn fig16(s: &mut Sheet) {
    s.line("topology        DR/base");
    for topo in Topology::ALL {
        let gain = dr_gain(s, &on_topology(SystemConfig::default(), topo), &firsts());
        s.line(format!("{:<12} {gain:>10.3}", topo.label()));
    }
}

/// Figure 17: DR's GPU gain per chip layout, each over that layout's own
/// baseline with its best routing.
fn fig17(s: &mut Sheet) {
    s.line("layout        DR/base");
    for layout in LayoutKind::ALL {
        let gain = dr_gain(s, &on_layout(layout), &firsts());
        s.line(format!("{:<10} {gain:>10.3}", layout.label()));
    }
}

/// Figure 18: DR's CPU gain per chip layout, over every other workload.
/// Layouts B and D interleave CPU and GPU traffic.
fn fig18(s: &mut Sheet) {
    s.line("layout        DR/base netlat ratio");
    let pairs: Vec<Pair> = firsts().into_iter().step_by(2).collect();
    for layout in LayoutKind::ALL {
        let g = grid(s, &schemes(&on_layout(layout), BASE_DR), &pairs);
        let perf = geomean(&over(&g[1], &g[0], |r| r.cpu_performance));
        let lat = geomean(&over(&g[1], &g[0], |r| r.cpu_net_latency));
        s.line(format!("{:<10} {perf:>10.3} {lat:>12.3}", layout.label()));
    }
}

/// A cache of `capacity_bytes` with 128-byte lines.
fn cache(capacity_bytes: u64, ways: u32) -> CacheGeometry {
    CacheGeometry {
        capacity_bytes,
        ways,
        line_bytes: 128,
    }
}

/// Figure 19: DR's sensitivity to L1 and LLC size, NoC bandwidth, virtual
/// networks, network size and the memory-node injection buffer depth.
fn fig19(s: &mut Sheet) {
    s.line("-- L1 size (paper: 22.9% @16KB .. 30.2% @64KB)");
    for kb in [16u64, 48, 64] {
        let g = sensitivity(s, |c| c.gpu.l1 = cache(kb * 1024, 4));
        s.line(format!("  L1 {kb:>2} KB: DR/base {g:.3}"));
    }
    s.line("-- LLC size (paper: 25.0-26.0% across sizes)");
    for mb in [4u64, 8, 16] {
        let g = sensitivity(s, |c| c.llc.slice = cache(mb * 1024 * 1024 / 8, 16));
        s.line(format!("  LLC {mb:>2} MB: DR/base {g:.3}"));
    }
    s.line("-- NoC channel width (paper: biggest gains when constrained; 13.9% even at 24B)");
    for bytes in [8u32, 16, 24] {
        let g = sensitivity(s, |c| c.noc.channel_bytes = bytes);
        s.line(format!("  {bytes:>2} B channels: DR/base {g:.3}"));
    }
    s.line("-- virtual networks on one physical network (paper: 23.4% @1VC, 26.9% @2VC)");
    for vcs in [1usize, 2] {
        let vnets = VirtualNetConfig {
            request_vcs: vcs,
            reply_vcs: vcs,
        };
        let g = sensitivity(s, |c| c.noc.virtual_nets = Some(vnets));
        s.line(format!("  {vcs} VC per vnet: DR/base {g:.3}"));
    }
    s.line("-- mesh size, same node proportions (paper: stable gains)");
    for n in [8usize, 10, 12] {
        let g = sensitivity(s, |c| {
            (c.mesh_width, c.mesh_height) = (n, n);
            (c.n_mem, c.n_cpu, c.n_gpu) = (n, 2 * n, n * n - 3 * n);
        });
        s.line(format!("  {n}x{n} mesh: DR/base {g:.3}"));
    }
    s.line("-- memory-node injection buffer (paper: insensitive)");
    for pkts in [8usize, 16, 32] {
        let g = sensitivity(s, |c| c.noc.mem_inj_buf_pkts = pkts);
        s.line(format!("  {pkts:>2} packets: DR/base {g:.3}"));
    }
}

/// Section VII node mix on the 64-node chip: clogging, and so DR's gain,
/// grows with the GPU:memory-node ratio.
fn nodemix(s: &mut Sheet) {
    let mixes = [
        ("48G/8C/8M", 48, 8, 8),
        ("40G/16C/8M", 40, 16, 8),
        ("32G/24C/8M", 32, 24, 8),
        ("52G/8C/4M", 52, 8, 4),
        ("48G/8C/8M", 48, 8, 8),
        ("40G/8C/16M", 40, 8, 16),
    ];
    s.line("mix               DR/base");
    for (label, gpus, cpus, mems) in mixes {
        let gain = sensitivity(s, |c| (c.n_gpu, c.n_cpu, c.n_mem) = (gpus, cpus, mems));
        s.line(format!("{label:<14} {gain:>10.3}"));
    }
    s.line("(fewer memory nodes / more GPU cores => more clogging => bigger DR gains)");
}

/// Section VII energy and Sections III/IV area: NoC area at 1x and 2x
/// bandwidth, DR's hardware overhead, and energy per retired instruction
/// (so a shorter runtime shows up) over every third workload.
fn energy_area(s: &mut Sheet) {
    let mesh = |channel_bytes| NetShape {
        topology: Topology::Mesh,
        width: 8,
        height: 8,
        channel_bytes,
        vcs: 2,
        vc_buf_flits: 4,
    };
    let (base_area, wide_area) = (2.0 * mesh(16).area_mm2(), 2.0 * mesh(32).area_mm2());
    let ratio = wide_area / base_area;
    s.line(format!(
        "baseline dual mesh : {base_area:.2} mm2 (paper 2.27)"
    ));
    s.line(format!(
        "2x-bandwidth mesh  : {wide_area:.2} mm2 = {ratio:.2}x (paper 5.76, 2.5x)"
    ));
    let c = SystemConfig::default();
    let dr = DrArea::compute(c.n_gpu, c.n_mem, c.llc.slice, c.gpu.frq_entries);
    let total = dr.total_mm2();
    let share = total / (wide_area - base_area) * 100.0;
    s.line(format!(
        "DR hardware        : pointers {:.3} + FRQs {:.3} = {total:.3} mm2 ({share:.1}% of the 2x increase)",
        dr.pointers_mm2, dr.frqs_mm2
    ));
    s.line("\nscheme        dyn/instr  total/instr      vs base");
    let pairs: Vec<Pair> = firsts().into_iter().step_by(3).collect();
    let g = grid(s, &schemes(&c, BASE_DR_RP), &pairs);
    let mut base_total = 0.0;
    for (scheme, row) in BASE_DR_RP.iter().zip(&g) {
        let (mut dyn_e, mut tot_e) = (0.0, 0.0);
        for r in row {
            let rep = energy(r.flit_hops, r.channel_bytes, base_area, r.cycles);
            let instr = r.gpu_ipc * r.cycles as f64;
            dyn_e += rep.noc_dynamic_j / instr;
            tot_e += rep.total_j() / instr;
        }
        if *scheme == Scheme::Baseline {
            base_total = tot_e;
        }
        let (label, vs_base) = (scheme.label(), (tot_e / base_total - 1.0) * 100.0);
        s.line(format!(
            "{label:<10} {dyn_e:>12.3e} {tot_e:>12.3e} {vs_base:>11.1}%"
        ));
    }
    s.line("(negative = energy saved; savings come mostly from shorter execution time)");
}

/// Ablation of DR's design choices (beyond the paper's figures): DR as
/// each variant changes it over the default baseline, geomean over the
/// sensitivity pairs.
fn ablation(s: &mut Sheet) {
    let gain = |s: &mut Sheet, label: &str, mutate: &dyn Fn(&mut SystemConfig)| {
        let mut dr = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
        mutate(&mut dr);
        let g = grid(s, &[SystemConfig::default(), dr], &sensitivity_pairs());
        let gain = geomean(&over(&g[1], &g[0], ipc));
        s.line(format!("{label:<34} {gain:>10.3}"));
    };
    s.line("variant                               DR/base");
    gain(s, "paper design", &|_| {});
    gain(s, "delegate always (no trigger)", &|c| {
        c.dr.delegate_always = true
    });
    gain(s, "no delayed hits (bounce to LLC)", &|c| {
        c.dr.delayed_hits = false
    });
    for frq in [2usize, 8, 32] {
        gain(s, &format!("FRQ depth {frq}"), &|c| c.gpu.frq_entries = frq);
    }
    for rate in [1usize, 2, 4] {
        let label = format!("max {rate} delegations/node/cycle");
        gain(s, &label, &|c| c.dr.max_per_cycle = rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows `ids` names.
    fn rows(ids: &str) -> Vec<&'static Row> {
        select(Some(ids)).unwrap()
    }

    /// The fingerprints of the jobs the rows `ids` read.
    fn job_keys(ids: &str) -> HashSet<u64> {
        let (jobs, _) = plan(&rows(ids), 10, 10);
        jobs.into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn geomean_and_hm() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn row_ids_are_unique() {
        let ids: HashSet<&str> = ROWS.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), ROWS.len());
    }

    #[test]
    fn every_job_is_buildable_and_shared_jobs_run_once() {
        let (jobs, requested) = plan(&select(None).unwrap(), 10, 10);
        for (_, (cfg, gpu, cpu)) in &jobs {
            assert_eq!(cfg.validate(), Ok(()), "{gpu}+{cpu}");
        }
        assert!(jobs.len() < requested, "{} of {requested}", jobs.len());
        let keys: HashSet<u64> = jobs.iter().map(|j| j.0).collect();
        assert_eq!(keys.len(), jobs.len());
    }

    #[test]
    fn fig12_and_fig13_read_the_same_jobs() {
        assert_eq!(job_keys("fig12").len(), 66);
        assert_eq!(job_keys("fig12"), job_keys("fig13"));
    }

    #[test]
    fn figures_keeps_table_order_and_names_the_valid_ids() {
        let ids: Vec<&str> = rows("fig14, fig11,tab1").iter().map(|r| r.id).collect();
        assert_eq!(ids, ["tab1", "fig11", "fig14"]);
        let err = select(Some("fig99")).err().unwrap();
        assert!(
            err.0.contains("`fig99`") && err.0.contains("ablation"),
            "{err}"
        );
    }

    #[test]
    fn a_row_prints_the_same_alone_as_beside_a_row_sharing_its_jobs() {
        let print = |ids| {
            let rows = rows(ids);
            let (jobs, _) = plan(&rows, 20, 60);
            render(&rows, 20, 60, jobs, 2)
        };
        let (fig11, fig14) = (print("fig11"), print("fig14"));
        assert!(fig14.contains("=== Figure 14 ===") && fig14.contains("AVG forwarded"));
        assert_eq!(print("fig11,fig14"), fig11 + &fig14);
    }
}
