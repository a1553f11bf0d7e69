//! HMAC-SHA256 per RFC 2104 / FIPS 198-1.
//!
//! Used as the pseudo-random function inside the hash-based signature
//! scheme ([`crate::hbs`]) to derive one-time secret keys from a seed.

use crate::sha256::{sha256, Digest, Sha256};

const BLOCK: usize = 64;

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    hmac(key, |inner| {
        inner.update(message);
    })
}

/// HMAC-SHA256 over the message `write_message` streams into the inner
/// hasher, so callers with a message in several pieces need not join it.
fn hmac(key: &[u8], write_message: impl FnOnce(&mut Sha256)) -> Digest {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(sha256(key).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(ipad);
    write_message(&mut inner);
    let inner = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(opad).update(inner.as_bytes());
    outer.finalize()
}

/// A keyed PRF built on HMAC-SHA256: `prf(key, parts...)`.
///
/// Deterministically derives subkeys; every distinct sequence of `parts`
/// yields an independent 32-byte value.
pub fn prf(key: &[u8], parts: &[&[u8]]) -> Digest {
    hmac(key, |inner| {
        for p in parts {
            // Length-prefix each part so (a,bc) and (ab,c) differ.
            inner.update((p.len() as u32).to_be_bytes()).update(p);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_tc1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            out.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2.
    #[test]
    fn rfc4231_tc2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            out.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
    #[test]
    fn rfc4231_tc3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let out = hmac_sha256(&key, &data);
        assert_eq!(
            out.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // Keys longer than the block size must be hashed first; check the
        // result differs from the truncated-key interpretation and is stable.
        let long_key = vec![0x42u8; 100];
        let a = hmac_sha256(&long_key, b"msg");
        let b = hmac_sha256(&long_key[..64], b"msg");
        assert_ne!(a, b);
        assert_eq!(a, hmac_sha256(&long_key, b"msg"));
    }

    #[test]
    fn prf_domain_separation() {
        let key = b"seed";
        assert_ne!(prf(key, &[b"a", b"bc"]), prf(key, &[b"ab", b"c"]));
        assert_ne!(prf(key, &[b"a"]), prf(key, &[b"a", b""]));
        assert_eq!(prf(key, &[b"x", b"y"]), prf(key, &[b"x", b"y"]));
    }
}
