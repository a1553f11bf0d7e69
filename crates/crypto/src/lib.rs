//! # `nrslb-crypto` — cryptographic substrate for the nrslb workspace
//!
//! Everything here is implemented from scratch (no external crypto crates):
//!
//! * [`mod@sha256`] — SHA-256 per FIPS 180-4, the hash used for certificate
//!   fingerprints (the paper attaches GCCs to roots by SHA-256 hash),
//!   Merkle trees and signatures. The compression function is selected
//!   at run time: the x86_64 SHA-extension kernel when the CPU has it,
//!   the portable scalar code otherwise, with identical digests.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), used as the PRF inside the
//!   hash-based signature scheme.
//! * [`merkle`] — an RFC 6962-style Merkle tree with inclusion and
//!   consistency proofs, used by the simulated Certificate Transparency
//!   log (`nrslb-ctlog`) and the hash-based signature scheme.
//! * [`hbs`] — a stateful hash-based signature scheme (Winternitz one-time
//!   signatures under a Merkle tree, XMSS-style). This replaces RSA/ECDSA:
//!   the paper's contribution is trust *policy*, not cryptography, and a
//!   hash-based scheme gives genuinely asymmetric sign/verify with only
//!   the primitives above (see DESIGN.md §2 for the substitution note).
//! * [`shamir`] — Shamir secret sharing over GF(256) (constant-table
//!   log/exp arithmetic, polynomial split, Lagrange recovery), the
//!   substrate for the k-of-n coordinating-body quorum in `nrslb-rsf`.
//! * [`hex`] / [`base64`] — encodings for fingerprints and PEM armor.
//!
//! All types are `Send + Sync` and the crate performs no I/O. Its only
//! `unsafe` code is the SHA-extension kernel, in a private module of
//! [`mod@sha256`]: the kernel is reachable only through a run-time CPU
//! feature check, and its only pointer reads are four 16-byte loads
//! inside each 64-byte block.

#![warn(missing_docs)]

pub mod base64;
pub mod hbs;
pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod shamir;

pub use hbs::{Keypair, PublicKey, Signature};
pub use sha256::{sha256, Digest, Sha256};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature failed to verify against the given public key.
    BadSignature,
    /// A one-time key was reused or the keypair ran out of one-time leaves.
    KeyExhausted,
    /// A serialized object could not be decoded.
    Malformed(&'static str),
    /// A Merkle proof did not verify.
    BadProof,
    /// Hex input was not valid.
    BadHex,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::KeyExhausted => write!(f, "hash-based keypair exhausted"),
            CryptoError::Malformed(what) => write!(f, "malformed {what}"),
            CryptoError::BadProof => write!(f, "merkle proof verification failed"),
            CryptoError::BadHex => write!(f, "invalid hex input"),
        }
    }
}

impl std::error::Error for CryptoError {}
