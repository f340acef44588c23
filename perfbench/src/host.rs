//! The host descriptor printed at the start of every run, the host's CPU
//! steal, and the process memory high-water mark.

/// Elements per array of the STREAM triad probe: three 32 MiB arrays.
pub const TRIAD_ELEMS: usize = 1 << 22;
/// Best-of repetitions of the triad probe.
pub const TRIAD_REPS: usize = 5;

/// What the run measured about the machine it ran on.
#[derive(Clone, Debug)]
pub struct HostInfo {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Worker threads of the program's `ExecCtx::host()`.
    pub ctx_threads: usize,
    /// Size of the highest cache level the OS reports for CPU 0.
    pub llc_bytes: Option<u64>,
    /// STREAM triad bandwidth in GB/s over [`TRIAD_ELEMS`]-element arrays.
    pub triad_gbs: f64,
}

impl HostInfo {
    /// Probes the host. The triad's 96 MiB of arrays are freed before the
    /// workload resets the peak resident set (see [`reset_peak_rss`]).
    pub fn probe(ctx_threads: usize) -> Self {
        Self {
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ctx_threads,
            llc_bytes: llc_bytes(),
            triad_gbs: sparseopt::sim::stream_triad_gbs(TRIAD_ELEMS, TRIAD_REPS),
        }
    }

    /// One line per fact, for the run log.
    pub fn describe(&self) -> String {
        let llc = self
            .llc_bytes
            .map_or("unknown".to_string(), |b| format!("{} KiB", b / 1024));
        format!(
            "host: cpu=\"{}\" nproc={} exec_ctx_threads={} llc={} \
             triad={:.3} GB/s (3 arrays x {} f64 = {} MiB, best of {})",
            self.cpu_model,
            self.nproc,
            self.ctx_threads,
            llc,
            self.triad_gbs,
            TRIAD_ELEMS,
            3 * TRIAD_ELEMS * 8 / (1 << 20),
            TRIAD_REPS
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Largest `level` among `/sys/devices/system/cpu/cpu0/cache/index*`, and
/// its size.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let p = entry.path();
        let level = std::fs::read_to_string(p.join("level")).ok();
        let size = std::fs::read_to_string(p.join("size")).ok();
        let (Some(level), Some(size)) = (level, size) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|k| k * 1024)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m << 20)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Host-wide CPU time so far, from the first line of `/proc/stat`:
/// `(ticks of user through steal, steal ticks)`. Steal is time a vCPU was
/// ready to run but the hypervisor ran something else. The guest fields
/// after steal are already counted in user and nice.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

/// Share of host CPU time stolen since `before`, a [`cpu_ticks`] reading;
/// `None` when `/proc/stat` cannot be read.
pub fn steal_since(before: Option<(u64, u64)>) -> Option<f64> {
    let ((all0, steal0), (all1, steal1)) = (before?, cpu_ticks()?);
    Some(steal1.saturating_sub(steal0) as f64 / all1.saturating_sub(all0).max(1) as f64)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so that memory the benchmark touched and freed during
/// untimed preparation does not count in `peak_rss_mb`.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Current resident set (`VmRSS`) of this process in MiB.
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
