//! Child-side recorder: spans around each call into a layer, the timed
//! section's host cost, named metrics, and the oracle's tally. Everything
//! stays in memory until the child exits.

use std::time::Instant;

use crate::procfs::{self, Stat, TICKS_PER_SEC};

/// One interval of the benchmark's own code, timed on both host clocks.
/// `parent` indexes the enclosing span, so a span's self time is its
/// duration minus its children's.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub wall_ns: (u64, u64),
    pub cpu_ns: (u64, u64),
    /// Virtual seconds the call simulated, where the call reports it.
    pub virt_s: Option<f64>,
}

pub struct Probe {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    metrics: Vec<(String, f64)>,
    /// Oracle checks made plus requests generated, and how many of them
    /// failed (a mismatch, or a request shed or failed).
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches alone: any of these makes the child exit non-zero.
    pub mismatches: u64,
    timed_cpu_ns: Option<u64>,
    /// Cost of the [`Probe::untimed`] calls, kept out of the timed totals.
    excluded: Cost,
}

/// Host cost between two instants, on every clock the timed section reports.
#[derive(Clone, Copy, Default)]
struct Cost {
    cpu_ns: u64,
    wall_ns: u64,
    utime_ticks: u64,
    stime_ticks: u64,
    minor_faults: u64,
}

/// The clocks at one instant.
struct Clocks {
    cpu_ns: u64,
    wall_ns: u64,
    stat: Stat,
}

impl Cost {
    fn add(&mut self, c: Cost) {
        self.cpu_ns += c.cpu_ns;
        self.wall_ns += c.wall_ns;
        self.utime_ticks += c.utime_ticks;
        self.stime_ticks += c.stime_ticks;
        self.minor_faults += c.minor_faults;
    }
}

impl Clocks {
    fn until(&self, later: &Clocks) -> Cost {
        Cost {
            cpu_ns: later.cpu_ns - self.cpu_ns,
            wall_ns: later.wall_ns - self.wall_ns,
            utime_ticks: later.stat.utime_ticks - self.stat.utime_ticks,
            stime_ticks: later.stat.stime_ticks - self.stat.stime_ticks,
            minor_faults: later.stat.minor_faults - self.stat.minor_faults,
        }
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            timed_cpu_ns: None,
            excluded: Cost::default(),
        }
    }

    /// The instant span wall times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn wall_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in whichever span is open.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Probe) -> R) -> R {
        let id = self.spans.len();
        let (w, c) = (self.wall_ns(), procfs::cpu_ns());
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            wall_ns: (w, w),
            cpu_ns: (c, c),
            virt_s: None,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].wall_ns.1 = self.wall_ns();
        self.spans[id].cpu_ns.1 = procfs::cpu_ns();
        r
    }

    /// Record a span observed elsewhere (inside actors), as a child of the
    /// most recent span called `parent`.
    pub fn push_span(
        &mut self,
        name: &str,
        parent: &str,
        wall_ns: (u64, u64),
        cpu_ns: (u64, u64),
        virt_s: f64,
    ) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.spans.iter().rposition(|s| s.name == parent),
            wall_ns,
            cpu_ns,
            virt_s: Some(virt_s),
        });
    }

    fn clocks(&self) -> Clocks {
        Clocks {
            cpu_ns: procfs::cpu_ns(),
            wall_ns: self.wall_ns(),
            stat: procfs::self_stat(),
        }
    }

    /// Run the benchmark's own bookkeeping (folding a trace, checking and
    /// digesting a result) without charging it to the timed section.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = self.clocks();
        let r = f();
        let cost = t0.until(&self.clocks());
        self.excluded.add(cost);
        r
    }

    /// Attach the virtual seconds a call simulated to the innermost open span.
    pub fn virt(&mut self, secs: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].virt_s = Some(secs);
        }
    }

    /// The timed section: everything before it is set-up. Records the three
    /// end-to-end timings' raw material and the `host.*` process metrics.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Probe) -> R) -> R {
        assert!(self.timed_cpu_ns.is_none(), "one timed section per child");
        let t0 = self.clocks();
        let r = self.span("timed", f);
        let gross = t0.until(&self.clocks());
        let e = self.excluded;
        let cpu_ns = gross.cpu_ns - e.cpu_ns;
        self.timed_cpu_ns = Some(cpu_ns);
        let secs = |ticks: u64| ticks as f64 / TICKS_PER_SEC;
        self.put("setup_s", t0.cpu_ns as f64 / 1e9);
        self.put("host_cpu_s", cpu_ns as f64 / 1e9);
        self.put("host.wall_s", (gross.wall_ns - e.wall_ns) as f64 / 1e9);
        // Tick counters are 10 ms coarse, so an excluded slice can round to
        // more than the slice it was cut from.
        self.put(
            "host.user_s",
            secs(gross.utime_ticks.saturating_sub(e.utime_ticks)),
        );
        self.put(
            "host.sys_s",
            secs(gross.stime_ticks.saturating_sub(e.stime_ticks)),
        );
        self.put(
            "host.minor_faults",
            gross.minor_faults.saturating_sub(e.minor_faults) as f64,
        );
        r
    }

    /// CPU seconds the timed section used (0 before it has run).
    pub fn timed_cpu_s(&self) -> f64 {
        self.timed_cpu_ns.unwrap_or(0) as f64 / 1e9
    }

    /// Record a metric. A ratio over an empty denominator is not a
    /// measurement: it is reported on stderr and recorded as 0, which also
    /// keeps the JSON the parent prints valid.
    pub fn put(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("metric {name} is {value}; recording 0");
            0.0
        };
        self.metrics.push((name.to_string(), value));
    }

    /// One oracle comparison. A mismatch is reported on stderr and counted;
    /// the child exits non-zero at the end if any was seen.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
            eprintln!("ORACLE MISMATCH: {}", what());
        }
    }

    /// Many oracle comparisons at once: `failed` of `attempted` mismatched.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        self.mismatches += failed;
        if failed > 0 {
            eprintln!("ORACLE MISMATCH: {what}: {failed} of {attempted}");
        }
    }

    /// Requests offered to a service and how many it shed or failed. Not an
    /// oracle mismatch, but counted against the workload all the same.
    pub fn requests(&mut self, generated: u64, unserved: u64) {
        self.attempted += generated;
        self.failed += unserved;
    }

    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The spans as a JSON array (times in ns since the child's probe started).
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let virt = s.virt_s.map_or("null".to_string(), |v| format!("{v}"));
            format!(
                "    {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"wall_start_ns\": {}, \"wall_end_ns\": {}, \
                 \"cpu_start_ns\": {}, \"cpu_end_ns\": {}, \"virt_s\": {virt}}}",
                s.name, s.wall_ns.0, s.wall_ns.1, s.cpu_ns.0, s.cpu_ns.1
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}
