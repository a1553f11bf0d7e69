//! The SHA-256 compression function on the x86_64 SHA extensions
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2`).
//!
//! This module holds the crate's only `unsafe` code. Two facts make it
//! sound:
//!
//! * **The instructions exist.** [`compress_ni`] is compiled with the SHA
//!   and SSE2–4.1 extensions enabled, so calling it on a CPU without them
//!   would be undefined behaviour. The only way out of this module is
//!   [`detect`], which hands out the safe wrapper [`compress`] only after
//!   `is_x86_feature_detected!` has confirmed every one of those
//!   extensions on the running CPU. `compress` itself is private, so no
//!   other code can reach it without passing through that check.
//! * **Every load stays in bounds.** The only memory the kernel reads
//!   through a pointer is a 64-byte block from `chunks_exact(64)`, in
//!   four unaligned 16-byte loads at offsets 0, 16, 32 and 48. The state
//!   and round constants go in and out by value.

use super::{CompressFn, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_loadu_si128,
    _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
    _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
};

/// The hardware compression function, when this CPU has every extension
/// [`compress_ni`] is compiled for. std caches the CPUID answer, so each
/// call costs a few loads of a cached flag word.
pub(super) fn detect() -> Option<CompressFn> {
    let available = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    available.then_some(compress as CompressFn)
}

fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: `compress` is private to this module and leaves it only
    // through `detect`, which returns it only after
    // `is_x86_feature_detected!` confirmed `sha`, `sse2`, `ssse3` and
    // `sse4.1` on this CPU — every feature `compress_ni` enables.
    unsafe { compress_ni(state, blocks) }
}

/// Four rounds: add the round constants `K[4i..4i+4]` to the schedule
/// words in `$w` and run two `sha256rnds2` steps of two rounds each.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:literal) => {{
        let k = _mm_set_epi32(
            K[4 * $i + 3] as i32,
            K[4 * $i + 2] as i32,
            K[4 * $i + 1] as i32,
            K[4 * $i] as i32,
        );
        let wk = _mm_add_epi32($w, k);
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }};
}

/// Message schedule: the next four words `W[t..t+4]` from the sixteen
/// before them, held as `$w0` (oldest) to `$w3` (newest). The result
/// replaces `$w0`, so the four registers form a rotating window.
macro_rules! schedule {
    ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {{
        let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
        $w0 = _mm_sha256msg2_epu32(t, $w3);
    }};
}

/// Compress each 64-byte block of `blocks` into `state`, in order.
/// Trailing bytes short of a whole block are ignored; callers pass whole
/// blocks only.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_ni(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte shuffle turning each big-endian message word little-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // `sha256rnds2` keeps the working variables as (A,B,E,F) and
    // (C,D,G,H), high lane first.
    let dcba = _mm_set_epi32(
        state[3] as i32,
        state[2] as i32,
        state[1] as i32,
        state[0] as i32,
    );
    let hgfe = _mm_set_epi32(
        state[7] as i32,
        state[6] as i32,
        state[5] as i32,
        state[4] as i32,
    );
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is exactly 64 bytes (`chunks_exact(64)`), so the
        // 16-byte reads at offsets 0, 16, 32 and 48 lie inside it, and
        // `_mm_loadu_si128` has no alignment requirement.
        let [m0, m1, m2, m3] = unsafe {
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        let mut w0 = _mm_shuffle_epi8(m0, bswap);
        let mut w1 = _mm_shuffle_epi8(m1, bswap);
        let mut w2 = _mm_shuffle_epi8(m2, bswap);
        let mut w3 = _mm_shuffle_epi8(m3, bswap);

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, w0, 4);
        schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, w1, 5);
        schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, w2, 6);
        schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, w3, 7);
        schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, w0, 8);
        schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, w1, 9);
        schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, w2, 10);
        schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, w3, 11);
        schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, w0, 12);
        schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, w1, 13);
        schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, w2, 14);
        schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, w3, 15);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    *state = [
        _mm_extract_epi32(dcba, 0) as u32,
        _mm_extract_epi32(dcba, 1) as u32,
        _mm_extract_epi32(dcba, 2) as u32,
        _mm_extract_epi32(dcba, 3) as u32,
        _mm_extract_epi32(hgef, 0) as u32,
        _mm_extract_epi32(hgef, 1) as u32,
        _mm_extract_epi32(hgef, 2) as u32,
        _mm_extract_epi32(hgef, 3) as u32,
    ];
}
