//! The reference kernel that scales host times to a fixed host speed.
//!
//! The reference host is shared: other tenants slow a whole run by up to
//! half again, in spells of seconds to minutes, so raw host times of the
//! same build drift from run to run far more than a change worth
//! measuring. The benchmark runs this kernel around each timed step and
//! after each set-up, and reports the step's time divided by the
//! kernel's, times [`PACE_S`]: the step's host time on a host where the
//! kernel takes `PACE_S`. The kernel is the benchmark's own code, never
//! the program's, so a change to the program moves only the numerator.

use std::collections::BTreeMap;
use std::time::Instant;

/// Host seconds the kernel takes on the 2-core reference host when it
/// is quiet; the scale of every paced time.
pub const PACE_S: f64 = 0.011;

/// Runs the kernel once and returns its host time in seconds: a
/// seeded random walk over a 512 KiB array plus ordered-map inserts and
/// lookups, a mix of arithmetic, cache misses and allocation like the
/// simulator's.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut v: Vec<f64> = (0..65_536).map(f64::from).collect();
    let mut m = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..60_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x % 65_536) as usize;
        v[j] = v[j] * 0.999 + f64::from(i).sqrt();
        m.insert(x % 4096, v[j]);
        if let Some(y) = m.get(&u64::from(i % 4096)) {
            v[(i % 65_536) as usize] += *y;
        }
    }
    std::hint::black_box((&v, &m));
    t.elapsed().as_secs_f64()
}
