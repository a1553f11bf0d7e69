//! Golden test vectors for the from-scratch hash primitives: SHA-256
//! against NIST FIPS 180-4 (the ones every implementation publishes),
//! HMAC-SHA256 against RFC 4231 test cases 1–7. The rest of the
//! workspace — Merkle trees, hash-based signatures, content addressing
//! — is only as correct as these two functions; the known-answer values
//! at the end pin what those upper layers emit.

use nrslb_crypto::hbs::{verify, Keypair};
use nrslb_crypto::hmac::{hmac_sha256, prf};
use nrslb_crypto::merkle::{verify_consistency, MerkleTree};
use nrslb_crypto::sha256::{sha256, Digest, Sha256};

fn digest(hex: &str) -> Digest {
    Digest::from_hex(hex).expect("valid hex digest")
}

#[test]
fn sha256_fips_180_4_one_block() {
    // "abc" — FIPS 180-4 / SHA256ShortMsg.
    assert_eq!(
        sha256(b"abc"),
        digest("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    );
}

#[test]
fn sha256_empty_message() {
    assert_eq!(
        sha256(b""),
        digest("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    );
}

#[test]
fn sha256_fips_180_4_two_block() {
    // 448-bit message spanning the one-block padding boundary.
    assert_eq!(
        sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        digest("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
    );
}

#[test]
fn sha256_fips_180_4_four_block() {
    // 896-bit message (the "abcdefgh..." cascade from FIPS 180-4).
    let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
    assert_eq!(
        sha256(&msg[..]),
        digest("cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1")
    );
}

#[test]
fn sha256_one_million_a() {
    // 1,000,000 x 'a', fed through the streaming interface in uneven
    // chunks so the buffer-boundary logic is exercised too.
    let mut hasher = Sha256::new();
    let chunk = [b'a'; 997];
    let mut remaining = 1_000_000usize;
    while remaining > 0 {
        let n = remaining.min(chunk.len());
        hasher.update(&chunk[..n]);
        remaining -= n;
    }
    assert_eq!(
        hasher.finalize(),
        digest("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
    );
}

#[test]
fn sha256_streaming_matches_one_shot() {
    let msg = b"The quick brown fox jumps over the lazy dog";
    for split in 0..msg.len() {
        let mut hasher = Sha256::new();
        hasher.update(&msg[..split]);
        hasher.update(&msg[split..]);
        assert_eq!(hasher.finalize(), sha256(&msg[..]), "split at {split}");
    }
}

#[test]
fn hmac_rfc4231_case_1() {
    let key = [0x0b; 20];
    assert_eq!(
        hmac_sha256(&key, b"Hi There"),
        digest("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
    );
}

#[test]
fn hmac_rfc4231_case_2() {
    // A key shorter than the hash output.
    assert_eq!(
        hmac_sha256(b"Jefe", b"what do ya want for nothing?"),
        digest("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    );
}

#[test]
fn hmac_rfc4231_case_3() {
    let key = [0xaa; 20];
    let msg = [0xdd; 50];
    assert_eq!(
        hmac_sha256(&key, &msg),
        digest("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe")
    );
}

#[test]
fn hmac_rfc4231_case_4() {
    let key: Vec<u8> = (0x01..=0x19).collect();
    let msg = [0xcd; 50];
    assert_eq!(
        hmac_sha256(&key, &msg),
        digest("82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b")
    );
}

#[test]
fn hmac_rfc4231_case_5() {
    // Truncated-output case: compare the first 128 bits.
    let key = [0x0c; 20];
    let mac = hmac_sha256(&key, b"Test With Truncation");
    assert_eq!(
        mac.as_bytes()[..16],
        Digest::from_hex("a3b6167473100ee06e0c796c2955552b00000000000000000000000000000000")
            .unwrap()
            .as_bytes()[..16]
    );
}

#[test]
fn hmac_rfc4231_case_6() {
    // A key larger than one SHA-256 block: hashed before use.
    let key = [0xaa; 131];
    assert_eq!(
        hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First"
        ),
        digest("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
    );
}

#[test]
fn hmac_rfc4231_case_7() {
    let key = [0xaa; 131];
    let msg = b"This is a test using a larger than block-size key and a larger \
than block-size data. The key needs to be hashed before being used by the HMAC \
algorithm.";
    assert_eq!(
        hmac_sha256(&key, &msg[..]),
        digest("9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2")
    );
}

// ---------------------------------------------------------------------------
// Known-answer values for the layers built on SHA-256. A sign/verify round
// trip cannot catch a hash that is wrong the same way on both sides; these
// values were taken from the portable scalar compression function (the PRF
// outputs and the Merkle root also agree with Python's `hashlib`/`hmac`),
// and pin every byte the hash-based signatures, the PRF and the Merkle tree
// emit whichever compression kernel the host selects.

fn kat_keypair() -> Keypair {
    Keypair::from_seed([0x5a; 32], 4).expect("height 4 is supported")
}

#[test]
fn hbs_h4_public_root_known_answer() {
    assert_eq!(
        kat_keypair().public().root,
        digest("b9d112dd089a25524713c88998a5c00dfa523fd8b0988af1a43aaa6b07b146b1")
    );
}

#[test]
fn hbs_h4_signature_bytes_known_answer() {
    let mut key = kat_keypair();
    let public = key.public();
    let expected = [
        "667841c4103e00aede5d5e9a8c93d67f131ec3a45585b5d60e26b7b9b8f641b3",
        "9ba4a8e6f0b2de69189c62e9b249c84d0025527469c2fa7d56031185ff666b7d",
        "92d45c362b847adda259f54cbadae23cd67f18cfee8f06df7456c10fd6e9c0d6",
    ];
    for (i, want) in expected.iter().enumerate() {
        let msg = format!("known-answer message {i}");
        let sig = key.sign(msg.as_bytes()).expect("leaves remain");
        assert_eq!(sha256(sig.to_bytes()), digest(want), "signature {i}");
        verify(&public, msg.as_bytes(), &sig).expect("pinned signature verifies");
    }
}

#[test]
fn prf_known_answer() {
    // The first input is the shape HBS keygen and signing use; the second
    // has an empty part and a part longer than one SHA-256 block.
    assert_eq!(
        prf(
            &[0x5a; 32],
            &[b"wots-sk", &5u64.to_be_bytes(), &3u32.to_be_bytes()]
        ),
        digest("04544b75bc1daf90abb3ec9c00e731d0171101f0853f0a5ff0b3b63f8ec68e4e")
    );
    assert_eq!(
        prf(b"kat", &[b"", &[0xc3; 100], b"tail"]),
        digest("a12f79e2a361f4a328f019603b03e444feb61795087b69dc8afdd6a767981be5")
    );
}

#[test]
fn merkle_1000_leaves_known_answer() {
    let mut tree = MerkleTree::new();
    for i in 0..1000u32 {
        tree.push(&i.to_be_bytes());
    }
    let root = digest("ed58fe22105717ceedf760a43eedfb173a60c44ef40fd61b6cd86bd4ebb59b61");
    assert_eq!(tree.root(), root);
    assert_eq!(tree.root_parallel(), root);

    let proof = tree.prove_consistency(377, 1000).expect("sizes in range");
    let expected_path: Vec<Digest> = [
        "e742abc7c8651d42db9d6572cba14b1ce6b7d7f21229cdb399d1f8bdc09ebf65",
        "9713a9f517404ed9270b471efbdf513b7c06c25103f26f26afee40b972202fef",
        "667b93944b7d4b4aa339b68ec2b5aea7779f0a216a9b2058c72ba0b7a65bc9a9",
        "45050619ff63c0f955dfbb852f6dd458c1b69bcdf9ab249508358e1eb2c0a593",
        "ffe9976ba943b8a33afeacc61afd1743f10c8973891060765451117a02025182",
        "e652a8ea57b9f24f3f2d9b46b17d8c33f58b8a89ca4f052cd1a68b59a66f2214",
        "8b23acd6dd11dd931a9f79299ecc303878c9ba462e90714812774badc05447ee",
        "c412151dbaa16c534ca01accbbdcc67469e4a8ed91e113544fb36eb05799c7ef",
        "478f5f92578c03a9aa3a53d0ed36c68044e6396e39c17ea399406c6408fda897",
        "78cd7db3bbfa785ffefa21e1c0aa7d4806c6e22ad65472710377ecb7e5a5a54e",
        "b4974cb47f39312455f7858f89e2a37e869b0669ddfa0ed7b2188d31493a8457",
    ]
    .iter()
    .map(|h| digest(h))
    .collect();
    assert_eq!(proof.path, expected_path);
    let old_root = tree.root_at(377).expect("size in range");
    verify_consistency(&proof, &old_root, &root).expect("pinned proof verifies");
}
