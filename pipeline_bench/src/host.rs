//! Process memory and host context.

/// A `VmXXX:` field of `/proc/self/status`, in kB (0 where unavailable).
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Process high-water resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") as f64 / 1024.0
}

/// Current resident set (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS") as f64 / 1024.0
}

/// Size of the CPU-0 cache at `level` in KiB, if the kernel reports it.
fn cache_kib(level: u32) -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best = None;
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |name: &str| std::fs::read_to_string(path.join(name)).ok();
        let Some(lvl) = read("level").and_then(|s| s.trim().parse::<u32>().ok()) else {
            continue;
        };
        let kind = read("type").unwrap_or_default();
        if lvl != level || kind.trim() == "Instruction" {
            continue;
        }
        let size = read("size").unwrap_or_default();
        let size = size.trim();
        let kib = if let Some(k) = size.strip_suffix('K') {
            k.parse().ok()
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m * 1024)
        } else {
            size.parse::<u64>().ok().map(|b| b / 1024)
        };
        best = best.max(kib);
    }
    best
}

/// Worker-pool size the engine resolved (`MTE_THREADS`, default: the
/// available parallelism).
pub fn pool_threads() -> usize {
    rayon::current_num_threads()
}

/// The host context printed with every result, as one JSON object.
pub fn context_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cache = |level| cache_kib(level).map_or("null".to_string(), |k| k.to_string());
    format!(
        "{{\"nproc\": {nproc}, \"pool_threads\": {}, \"l2_kib\": {}, \"l3_kib\": {}, \
         \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        pool_threads(),
        cache(2),
        cache(3),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_GIT_REV"),
    )
}
