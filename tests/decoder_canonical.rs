//! The decoder is strict and canonical: it never panics on arbitrary words,
//! and every word stream it accepts re-encodes to exactly the same words —
//! so the bytes ConfVerify accepts denote exactly one program.
//!
//! Inputs are fully random word streams and 1–3 bit flips of the compiled
//! nginx and ldap binaries under OurMPX and OurSeg (a flip in a used field
//! decodes to a different, still canonical instruction; a flip anywhere
//! else must be rejected).

use std::sync::OnceLock;

use confllvm_repro::core::{compile, CompileOptions, Config};
use confllvm_repro::machine::{decode_words, encode_inst, Binary, MInst, MagicPrefixes};
use confllvm_repro::workloads::{ldap, nginx};
use proptest::prelude::*;

/// nginx and ldap, each under OurMPX and OurSeg.
fn binaries() -> &'static [Binary] {
    static BINARIES: OnceLock<Vec<Binary>> = OnceLock::new();
    BINARIES.get_or_init(|| {
        let mut out = Vec::new();
        for (source, entry) in [
            (nginx::SOURCE.to_string(), nginx::SETUP_ENTRY),
            (ldap::annotated_source(), ldap::SETUP_ENTRY),
        ] {
            for config in [Config::OurMpx, Config::OurSeg] {
                let opts = CompileOptions {
                    config,
                    entry: entry.to_string(),
                    ..Default::default()
                };
                out.push(compile(&source, &opts).expect("compiles").binary());
            }
        }
        out
    })
}

fn reencode(insts: &[(u32, MInst)]) -> Vec<u64> {
    let mut words = Vec::new();
    for (_, inst) in insts {
        words.extend_from_slice(&encode_inst(inst));
    }
    words
}

/// Decode `words`; if the decoder accepts them, they must be canonical.
/// Returns whether they were accepted.
fn check(words: &[u64], prefixes: &MagicPrefixes) -> bool {
    match decode_words(words, prefixes) {
        Ok(insts) => {
            let again = reencode(&insts);
            let first_difference = again.iter().zip(words).position(|(a, b)| a != b);
            assert!(
                again.len() == words.len() && first_difference.is_none(),
                "an accepted stream must re-encode to its own words: {} words \
                 re-encoded to {}, first difference at word {first_difference:?}",
                words.len(),
                again.len()
            );
            true
        }
        Err(_) => false,
    }
}

#[test]
fn compiled_binaries_are_canonical() {
    for b in binaries() {
        assert!(check(&b.words, &b.header.prefixes), "{}", b.header.name);
    }
}

#[test]
fn unused_bits_and_fields_are_rejected() {
    let b = &binaries()[0];
    let insts = b.decode().expect("compiled binary decodes");
    // The first two-word instruction, with bit 31 (between the flag and
    // condition fields, used by no opcode) set.
    let (offset, _) = insts
        .iter()
        .find(|(_, i)| !matches!(i, MInst::MagicWord { .. }))
        .expect("a two-word instruction");
    let mut words = b.words.clone();
    words[*offset as usize] |= 1 << 31;
    assert!(!check(&words, &b.header.prefixes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_words_never_panic_and_accepted_streams_are_canonical(
        words in prop::collection::vec(0u64..u64::MAX, 0..24),
        opcode in 0u64..32,
    ) {
        let prefixes = binaries()[0].header.prefixes;
        check(&words, &prefixes);
        // The same stream with a plausible opcode byte up front, so the
        // field checks (not just the opcode table) see random input.
        let mut words = words;
        if let Some(w) = words.first_mut() {
            *w = (*w & !0xff) | opcode;
        }
        check(&words, &prefixes);
    }

    #[test]
    fn bit_flips_of_compiled_binaries_never_panic_and_stay_canonical(
        which in 0usize..4,
        flips in prop::collection::vec((0usize..usize::MAX, 0u32..64), 1..4),
    ) {
        let b = &binaries()[which];
        let mut words = b.words.clone();
        for (at, bit) in flips {
            let at = at % words.len();
            words[at] ^= 1 << bit;
        }
        check(&words, &b.header.prefixes);
    }
}
