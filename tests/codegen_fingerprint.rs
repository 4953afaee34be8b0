//! Compiler-output fingerprint golden: every evaluation program, compiled
//! under every configuration, must encode to exactly the committed words.
//!
//! Each (program, config) pair is pinned by its word count and a 64-bit
//! FNV-1a hash of `compile(..).binary().words`.  Compiler-speed work (faster
//! analyses, cheaper instruction surgery) must leave this table untouched;
//! a pass that eliminates, hoists or keeps a different set of checks changes
//! the words and fails here.  On a mismatch the test prints the full
//! recomputed table so an *intended* codegen change can be reviewed and
//! committed in one step.

use confllvm_core::{compile, CompileOptions, Config};
use confllvm_workloads::{ldap, merkle, nginx, privado, spec};

/// (program, config name, word count, FNV-1a of the words).
const GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("bzip2", "Base", 496, 0x0254b04e7921807e),
    ("bzip2", "BaseOA", 496, 0x0254b04e7921807e),
    ("bzip2", "Our1Mem", 496, 0x0254b04e7921807e),
    ("bzip2", "OurBare", 498, 0xefb8c37b7830808d),
    ("bzip2", "OurCFI", 527, 0x44fbafc2c9a2cd35),
    ("bzip2", "OurMPX-Sep", 601, 0xd4b76a5a5fd9be72),
    ("bzip2", "OurMPX", 601, 0xd4b76a5a5fd9be72),
    ("bzip2", "OurSeg", 527, 0x81dc31a8cabe32fc),
    ("gcc", "Base", 530, 0xfd15206826ead620),
    ("gcc", "BaseOA", 530, 0xfd15206826ead620),
    ("gcc", "Our1Mem", 530, 0xfd15206826ead620),
    ("gcc", "OurBare", 532, 0x1a2a49c4387297fd),
    ("gcc", "OurCFI", 561, 0x576dcbcf4c905414),
    ("gcc", "OurMPX-Sep", 625, 0xc25208b2c6076a12),
    ("gcc", "OurMPX", 625, 0xc25208b2c6076a12),
    ("gcc", "OurSeg", 561, 0xeb4cbb7ab3f81e94),
    ("mcf", "Base", 598, 0x567c43915842aa11),
    ("mcf", "BaseOA", 598, 0x567c43915842aa11),
    ("mcf", "Our1Mem", 598, 0x567c43915842aa11),
    ("mcf", "OurBare", 600, 0x403305070f0d9cca),
    ("mcf", "OurCFI", 629, 0x148fce5b5f3255ce),
    ("mcf", "OurMPX-Sep", 705, 0xd75a044af513b6f6),
    ("mcf", "OurMPX", 705, 0xd75a044af513b6f6),
    ("mcf", "OurSeg", 629, 0xe27cb8154c4fa637),
    ("gobmk", "Base", 728, 0x1007e18b15d2d24c),
    ("gobmk", "BaseOA", 728, 0x1007e18b15d2d24c),
    ("gobmk", "Our1Mem", 728, 0x1007e18b15d2d24c),
    ("gobmk", "OurBare", 732, 0x208c42d672ce5300),
    ("gobmk", "OurCFI", 791, 0xc1813bc4415a11e1),
    ("gobmk", "OurMPX-Sep", 855, 0x70895f3df58c2acf),
    ("gobmk", "OurMPX", 855, 0x70895f3df58c2acf),
    ("gobmk", "OurSeg", 791, 0xbb5881c100e6bb1c),
    ("hmmer", "Base", 576, 0x51f0a8fd52b617b1),
    ("hmmer", "BaseOA", 576, 0x51f0a8fd52b617b1),
    ("hmmer", "Our1Mem", 576, 0x51f0a8fd52b617b1),
    ("hmmer", "OurBare", 578, 0x2fabb4810883cece),
    ("hmmer", "OurCFI", 607, 0x22fa02ce126fc3a5),
    ("hmmer", "OurMPX-Sep", 685, 0x93f128ceaed80620),
    ("hmmer", "OurMPX", 685, 0x93f128ceaed80620),
    ("hmmer", "OurSeg", 607, 0xcefd7349a64ae3a1),
    ("sjeng", "Base", 606, 0xa1ef20048c2af294),
    ("sjeng", "BaseOA", 606, 0xa1ef20048c2af294),
    ("sjeng", "Our1Mem", 606, 0xa1ef20048c2af294),
    ("sjeng", "OurBare", 612, 0x467eba0955b44b05),
    ("sjeng", "OurCFI", 716, 0xa211a47fad2fdcef),
    ("sjeng", "OurMPX-Sep", 808, 0x524b3fc4e0dd66e0),
    ("sjeng", "OurMPX", 808, 0x524b3fc4e0dd66e0),
    ("sjeng", "OurSeg", 716, 0x1c8b515f40167a7b),
    ("libquantum", "Base", 430, 0xf4804422e1fd592d),
    ("libquantum", "BaseOA", 430, 0xf4804422e1fd592d),
    ("libquantum", "Our1Mem", 430, 0xf4804422e1fd592d),
    ("libquantum", "OurBare", 432, 0xcc4bac9c523d91d8),
    ("libquantum", "OurCFI", 461, 0xa6b9c0c4b44ab745),
    ("libquantum", "OurMPX-Sep", 513, 0xf5134e00492ddb8b),
    ("libquantum", "OurMPX", 513, 0xf5134e00492ddb8b),
    ("libquantum", "OurSeg", 461, 0x785351c713964835),
    ("h264ref", "Base", 742, 0xe415b49eab004576),
    ("h264ref", "BaseOA", 742, 0xe415b49eab004576),
    ("h264ref", "Our1Mem", 742, 0xe415b49eab004576),
    ("h264ref", "OurBare", 746, 0x62f654ed07b81294),
    ("h264ref", "OurCFI", 805, 0xad28b80f6e75613f),
    ("h264ref", "OurMPX-Sep", 909, 0x7942fb727f914ff7),
    ("h264ref", "OurMPX", 909, 0x7942fb727f914ff7),
    ("h264ref", "OurSeg", 805, 0x1d99916824bb45e7),
    ("milc", "Base", 652, 0x87301542a9296acd),
    ("milc", "BaseOA", 652, 0x87301542a9296acd),
    ("milc", "Our1Mem", 652, 0x87301542a9296acd),
    ("milc", "OurBare", 654, 0xf060d0b96159843e),
    ("milc", "OurCFI", 685, 0xdce08b02c5d24030),
    ("milc", "OurMPX-Sep", 793, 0xf709fea7dae16b75),
    ("milc", "OurMPX", 793, 0xf709fea7dae16b75),
    ("milc", "OurSeg", 685, 0x8b22d67b050fef98),
    ("nginx", "Base", 1154, 0x48ff859b275d1c33),
    ("nginx", "BaseOA", 1154, 0x48ff859b275d1c33),
    ("nginx", "Our1Mem", 1154, 0x48ff859b275d1c33),
    ("nginx", "OurBare", 1166, 0x2e8902bdc87fd98c),
    ("nginx", "OurCFI", 1352, 0x9d0ee9144bfb82a3),
    ("nginx", "OurMPX-Sep", 1542, 0xb8ecf234a61235a4),
    ("nginx", "OurMPX", 1542, 0x401a80a7476bcf84),
    ("nginx", "OurSeg", 1352, 0x2ffb74f4425fc6b0),
    ("ldap", "Base", 1252, 0x7cd38a829dcc31a9),
    ("ldap", "BaseOA", 1252, 0x7cd38a829dcc31a9),
    ("ldap", "Our1Mem", 1252, 0x7cd38a829dcc31a9),
    ("ldap", "OurBare", 1264, 0xc13c6e6a734640e5),
    ("ldap", "OurCFI", 1477, 0x9f5c75a8bf135c95),
    ("ldap", "OurMPX-Sep", 1665, 0x597bc761a56efd83),
    ("ldap", "OurMPX", 1665, 0x51b1784ad2150263),
    ("ldap", "OurSeg", 1477, 0x4b24d8bbb2c41971),
    ("privado", "Base", 1096, 0x0469b6d9b6984df3),
    ("privado", "BaseOA", 1096, 0x0469b6d9b6984df3),
    ("privado", "Our1Mem", 1096, 0x0469b6d9b6984df3),
    ("privado", "OurBare", 1104, 0x4b469f164d6d8bd4),
    ("privado", "OurCFI", 1206, 0x7d7343a4fb76e5a7),
    ("privado", "OurMPX-Sep", 1358, 0x9656150763d00359),
    ("privado", "OurMPX", 1358, 0x39240aa18852fb29),
    ("privado", "OurSeg", 1206, 0xbaca8c3437c5995b),
    ("merkle", "Base", 252, 0x34c4443a53047af8),
    ("merkle", "BaseOA", 252, 0x34c4443a53047af8),
    ("merkle", "Our1Mem", 252, 0x34c4443a53047af8),
    ("merkle", "OurBare", 256, 0x173563c530b561e2),
    ("merkle", "OurCFI", 317, 0x86d6880c736c6ed4),
    ("merkle", "OurMPX-Sep", 361, 0x0073734de4a801cc),
    ("merkle", "OurMPX", 361, 0xe4b20a9792d117ec),
    ("merkle", "OurSeg", 317, 0x698588e793afea74),
];

/// 64-bit FNV-1a over the little-endian bytes of every word.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The 13 programs with the entry point their workload driver compiles for.
fn programs() -> Vec<(&'static str, String, &'static str)> {
    let mut v: Vec<(&'static str, String, &'static str)> = spec::KERNELS
        .iter()
        .map(|k| (k.name, k.source.to_string(), "run"))
        .collect();
    v.push(("nginx", nginx::SOURCE.to_string(), "serve"));
    v.push(("ldap", ldap::annotated_source(), "populate"));
    v.push(("privado", privado::SOURCE.to_string(), "classify"));
    v.push(("merkle", merkle::SOURCE.to_string(), "read_file_blocks"));
    v
}

fn fingerprints() -> Vec<(&'static str, &'static str, usize, u64)> {
    let mut out = Vec::new();
    for (name, source, entry) in programs() {
        for config in Config::ALL {
            let opts = CompileOptions {
                config,
                entry: entry.to_string(),
                ..Default::default()
            };
            let compiled = compile(&source, &opts)
                .unwrap_or_else(|e| panic!("{name} fails to compile under {config}: {e:?}"));
            let words = compiled.binary().words;
            out.push((name, config.name(), words.len(), fnv1a(&words)));
        }
    }
    out
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    // FNV-1a of the empty input is the offset basis; of the eight zero
    // bytes of one zero word it is the published 64-bit value.
    assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(&[0]), 0xa8c7_f832_281a_39c5);
}

#[test]
fn compiled_words_match_the_golden_table() {
    let actual = fingerprints();
    let table: String = actual
        .iter()
        .map(|(p, c, n, h)| format!("    ({p:?}, {c:?}, {n}, {h:#018x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "golden table size differs; recomputed table:\n{table}"
    );
    for (got, want) in actual.iter().zip(GOLDEN) {
        assert_eq!(
            got, want,
            "compiled output changed for {} under {}; recomputed table:\n{table}",
            got.0, got.1
        );
    }
}
