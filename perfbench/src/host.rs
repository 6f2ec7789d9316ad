//! Host-side helpers: memory high-water mark, host metadata, order
//! statistics and the report digest.

/// The process's resident-memory high-water mark in MB (10^6 bytes,
/// from `VmHWM`), or `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The lane-VM instruction-set tier the kernel crate selects on this
/// host. Mirrors `accelsoc_kernel::lanes::hot_isa` (private there),
/// including its `ACCELSOC_LANE_ISA` override, so results from different
/// tiers are never compared blindly.
pub fn lane_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        let avx512 = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl");
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let detected = if avx512 {
            "avx512"
        } else if avx2 {
            "avx2"
        } else {
            "baseline"
        };
        match std::env::var("ACCELSOC_LANE_ISA").as_deref() {
            Ok("scalar") => "baseline",
            Ok("avx2") if avx2 => "avx2",
            Ok("avx512") if avx512 => "avx512",
            _ => detected,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    "baseline"
}

/// One line naming everything a result depends on besides the code.
pub fn metadata_line() -> String {
    format!(
        "host     : nproc {}  lane_isa {}  rustc {:?}  git_rev {}",
        nproc(),
        lane_isa(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
    )
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p as f64 / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over a serialized report: the output-identity digest.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 50), 3.0);
        assert_eq!(percentile(&v, 99), 5.0);
        assert_eq!(percentile(&v, 0), 1.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}
