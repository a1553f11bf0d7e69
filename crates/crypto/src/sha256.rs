//! SHA-256 per FIPS 180-4.
//!
//! A dependency-free implementation with an incremental [`Sha256`]
//! hasher and a one-shot [`sha256`] convenience function. Verified
//! against the standard NIST test vectors in the unit tests.
//!
//! The compression function is chosen at run time, once per hasher:
//! on an x86_64 CPU with the SHA extensions it is the hardware kernel in
//! the private `x86` module (the crate's only `unsafe` code; that
//! module's documentation gives its safety argument), and everywhere
//! else it is the portable scalar code below. Both produce the same
//! digests; the unit tests run every input through each of them. There
//! is no option to pick one: the CPU decides.

use crate::hex;

#[cfg(target_arch = "x86_64")]
mod x86;

/// A 32-byte SHA-256 digest.
///
/// Used throughout the workspace as a certificate fingerprint: the paper
/// attaches GCCs to root certificates "by SHA-256 hash" (§3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest; useful as a sentinel in tests.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering (64 characters).
    pub fn to_hex(&self) -> String {
        hex::encode(self.0)
    }

    /// Parse a digest from 64 hex characters.
    pub fn from_hex(s: &str) -> Result<Digest, crate::CryptoError> {
        let bytes = hex::decode(s)?;
        if bytes.len() != 32 {
            return Err(crate::CryptoError::Malformed("digest length"));
        }
        let mut out = [0u8; 32];
        out.copy_from_slice(&bytes);
        Ok(Digest(out))
    }

    /// A short (8 hex character) prefix, for log/display purposes.
    pub fn short(&self) -> String {
        hex::encode(&self.0[..4])
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression function: absorb each whole 64-byte block of the
/// slice into the state, in order.
type CompressFn = fn(&mut [u32; 8], &[u8]);

/// The fastest compression function this CPU supports.
fn select_compress() -> CompressFn {
    #[cfg(target_arch = "x86_64")]
    if let Some(hardware) = x86::detect() {
        return hardware;
    }
    compress_scalar
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
    compress: CompressFn,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            compress: select_compress(),
        }
    }

    /// Absorb `data` into the hash state. Whole blocks go to the
    /// compression function in one call, without passing through the
    /// buffer.
    pub fn update(&mut self, data: impl AsRef<[u8]>) -> &mut Self {
        let mut data = data.as_ref();
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return self;
            }
            (self.compress)(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            (self.compress)(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
        self
    }

    /// Finish the hash, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zero padding so the final block ends with the
        // 64-bit big-endian bit length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The portable FIPS 180-4 compression function: the only one on CPUs
/// without SHA extensions, and the reference the hardware kernel is
/// tested against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: impl AsRef<[u8]>) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of the concatenation of several byte strings, without
/// intermediate allocation.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            sha256(b"The quick brown fox jumps over the lazy dog").to_hex(),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()).unwrap(), d);
        assert!(Digest::from_hex("zz").is_err());
        assert!(Digest::from_hex("aabb").is_err());
    }

    /// Every compression function this CPU can run: the scalar arm
    /// always, the SHA-extension arm when the CPU has it. A host without
    /// the extension says so rather than passing the parity tests on one
    /// arm silently.
    fn kernels() -> Vec<(&'static str, CompressFn)> {
        let mut arms = vec![("scalar", compress_scalar as CompressFn)];
        #[cfg(target_arch = "x86_64")]
        if let Some(hardware) = x86::detect() {
            arms.push(("sha-ni", hardware));
        }
        if arms.len() == 1 {
            println!("sha256 kernels: this CPU has no SHA extensions; accelerated arm skipped");
        }
        arms
    }

    fn hash_with(compress: CompressFn, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256 {
            compress,
            ..Sha256::new()
        };
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    #[test]
    fn nist_vectors_on_every_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, compress) in kernels() {
            for (msg, want) in &vectors {
                assert_eq!(
                    hash_with(compress, &[msg]).to_hex(),
                    *want,
                    "{name}, {} bytes",
                    msg.len()
                );
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_length_and_split() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x5a_256);
        let mut data = vec![0u8; 64 * 1024];
        rng.fill(&mut data);
        let lengths = (0..=300).chain((0..64).map(|_| rng.gen_range(301..data.len() + 1)));
        let arms = kernels();
        for len in lengths {
            let msg = &data[..len];
            let reference = hash_with(compress_scalar, &[msg]);
            for (name, compress) in &arms {
                for split in [0, 1, 55, 56, 63, 64, 65] {
                    if split > len {
                        continue;
                    }
                    let (head, tail) = msg.split_at(split);
                    assert_eq!(
                        hash_with(*compress, &[head, tail]),
                        reference,
                        "{name}, length {len}, split at {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding logic around the 56/64-byte block boundaries.
        for len in 50..130usize {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update([*b]);
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }
}
