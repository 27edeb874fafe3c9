//! Explicit SIMD way-scan kernel for the packed-tag compare.
//!
//! A set-associative cache ([`crate::cache::SetAssocCache`], which also
//! backs every NUCA L2 slice) spends its hot path comparing one needle
//! against every way of a set: `N` packed `u64` tags. [`scan_masks_u64`]
//! does that with AVX2 `std::arch` intrinsics on x86-64 hosts that have
//! it — compare-equal plus movemask, one instruction per four ways — and
//! with [`portable_scan_u64`], a fixed-`N` branchless scalar loop,
//! everywhere else. The scalar loop is also the differential reference
//! the AVX2 path is tested against.
//!
//! Both return `(match_mask, invalid_mask)`: bit `w` of the first mask is
//! set iff way `w` equals the needle, bit `w` of the second iff way `w`
//! holds the all-zero invalid sentinel (`TAG_INVALID`).
//!
//! AVX2 is detected at run time: one cached feature probe (a relaxed
//! atomic load after the first call), constant-folded away entirely when
//! the build already targets AVX2 (e.g. `-C target-cpu=x86-64-v3`).

/// Scalar kernel over `N` packed `u64` tags: the path on hosts without
/// AVX2 and the differential reference the SIMD path is pinned to.
#[inline(always)]
pub fn portable_scan_u64<const N: usize>(tags: &[u64; N], needle: u64) -> (u32, u32) {
    let mut hit = 0u32;
    let mut invalid = 0u32;
    let mut way = 0;
    while way < N {
        hit |= ((tags[way] == needle) as u32) << way;
        invalid |= ((tags[way] == 0) as u32) << way;
        way += 1;
    }
    (hit, invalid)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256i, _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_set1_epi64x, _mm256_setzero_si256,
    };

    /// AVX2 kernel over `N` packed `u64` tags: `cmpeq_epi64` + `movemask_pd`
    /// gives four way-compare bits per 256-bit lane.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available and `N` is a multiple of 4
    /// (unaligned loads tile the array exactly).
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_u64<const N: usize>(tags: &[u64; N], needle: u64) -> (u32, u32) {
        let vneedle = _mm256_set1_epi64x(needle as i64);
        let vzero = _mm256_setzero_si256();
        let ptr = tags.as_ptr();
        let mut hit = 0u32;
        let mut invalid = 0u32;
        let mut way = 0;
        while way < N {
            let lane = _mm256_loadu_si256(ptr.add(way) as *const __m256i);
            let h = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lane, vneedle)));
            let z = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lane, vzero)));
            hit |= (h as u32) << way;
            invalid |= (z as u32) << way;
            way += 4;
        }
        (hit, invalid)
    }

    /// Cached AVX2 probe: constant `true` when the build already targets
    /// AVX2, one `is_x86_feature_detected!` on first call otherwise
    /// (then a relaxed load — the scan path pays one predictable branch).
    #[inline(always)]
    pub fn avx2_available() -> bool {
        #[cfg(target_feature = "avx2")]
        {
            true
        }
        #[cfg(not(target_feature = "avx2"))]
        {
            use std::sync::atomic::{AtomicU8, Ordering};
            static AVX2: AtomicU8 = AtomicU8::new(0);
            match AVX2.load(Ordering::Relaxed) {
                1 => true,
                2 => false,
                _ => {
                    let yes = std::is_x86_feature_detected!("avx2");
                    AVX2.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
                    yes
                }
            }
        }
    }
}

/// Hot-path way scan over `N` packed `u64` tags: AVX2 when the host has
/// it and `N` tiles 256-bit lanes, the scalar loop otherwise.
/// Bit-identical either way — proptested in this module and pinned end to
/// end by the golden report snapshot.
#[inline(always)]
pub fn scan_masks_u64<const N: usize>(tags: &[u64; N], needle: u64) -> (u32, u32) {
    #[cfg(target_arch = "x86_64")]
    {
        if N.is_multiple_of(4) && N <= 32 && x86::avx2_available() {
            // SAFETY: AVX2 just confirmed; N tiles the loads.
            return unsafe { x86::scan_u64(tags, needle) };
        }
    }
    portable_scan_u64(tags, needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tag values weighted toward the collision-relevant cases: the
    /// invalid sentinel, values equal to a fixed needle, and arbitrary
    /// packed tags.
    fn tag_vec(n: usize, needle: u64) -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(
            prop_oneof![
                Just(0u64),
                Just(needle),
                any::<u64>(),
                any::<u64>().prop_map(|v| v | 1 << 63),
            ],
            n..n + 1,
        )
    }

    fn check_u64<const N: usize>(tags: &[u64], needle: u64) -> Result<(), TestCaseError> {
        let tags: &[u64; N] = tags.try_into().expect("sized by the strategy");
        prop_assert_eq!(
            scan_masks_u64(tags, needle),
            portable_scan_u64(tags, needle)
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn u64_scan_matches_scalar_across_geometries(
            needle in any::<u64>().prop_map(|v| v | 1 << 63),
            tags4 in tag_vec(4, 0x8000_0000_0000_1234),
            tags8 in tag_vec(8, 0x8000_0000_0000_1234),
            tags16 in tag_vec(16, 0x8000_0000_0000_1234),
        ) {
            // A random needle, the one the strategy plants among the tags,
            // and the invalid sentinel itself.
            for needle in [needle, 0x8000_0000_0000_1234, 0] {
                check_u64::<4>(&tags4, needle)?;
                check_u64::<8>(&tags8, needle)?;
                check_u64::<16>(&tags16, needle)?;
            }
        }
    }

    #[test]
    fn masks_name_exact_ways() {
        let mut tags = [0u64; 8];
        tags[2] = 0x8000_0000_0000_aaaa;
        tags[5] = 0x8000_0000_0000_bbbb;
        let (hit, invalid) = scan_masks_u64(&tags, 0x8000_0000_0000_bbbb);
        assert_eq!(hit, 1 << 5);
        assert_eq!(invalid, 0b1101_1011);
    }
}
