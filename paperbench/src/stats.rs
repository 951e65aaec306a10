//! Order statistics, digests and process measurements.

/// Median of `xs` (mean of the two middle values for even lengths);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a digest builder over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one 64-bit word, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds every value's exact bit pattern.
    pub fn floats(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    /// Folds a label vector.
    pub fn labels(&mut self, labels: &[usize]) {
        self.word(labels.len() as u64);
        for &l in labels {
            self.word(l as u64);
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Online cores (`nproc`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout's git revision, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let head = d.join(".git").join("HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            let Some(reference) = text.strip_prefix("ref: ") else {
                return text.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(d.join(".git").join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(d.join(".git").join("packed-refs"));
            return packed
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".to_string());
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.floats(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.floats(&[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)]);
        assert_ne!(a.finish(), b.finish());
    }
}
