//! Programs and binaries.
//!
//! A [`Program`] is the structured (assembler-level) form of one compiled U
//! compartment: the instruction stream, the symbol table, the globals it
//! needs relocated, and the trusted extern (T) interface it links against.
//!
//! A [`Binary`] is the encoded form: a flat sequence of 64-bit code words
//! plus the load-time metadata (the "headers").  ConfVerify consumes only the
//! binary — it re-disassembles the words and never trusts the structured
//! program the compiler produced.

use confllvm_minic::Taint;

use crate::encode;
use crate::inst::MInst;
use crate::magic::MagicPrefixes;

/// Which memory-partitioning scheme a binary was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// No partitioning checks (baseline configurations).
    #[default]
    None,
    /// Intel-MPX style bound checks (Figure 3b).
    Mpx,
    /// Segment-register based partitioning (Figure 3a).
    Segment,
}

impl Scheme {
    pub fn name(self) -> &'static str {
        match self {
            Scheme::None => "none",
            Scheme::Mpx => "mpx",
            Scheme::Segment => "segment",
        }
    }
}

/// A function symbol in the program.
#[derive(Debug, Clone)]
pub struct FuncSym {
    pub name: String,
    /// Word index of the function's magic word (None when CFI is disabled).
    pub magic_word: Option<u32>,
    /// Word index of the first executable instruction.
    pub entry_word: u32,
    /// Taints of the four argument registers (unused ones conservatively
    /// private) and of the return register, as encoded in the magic word.
    pub arg_taints: [Taint; 4],
    pub ret_taint: Taint,
}

/// A global variable to be placed by the loader.
#[derive(Debug, Clone)]
pub struct GlobalSpec {
    pub name: String,
    pub size: u64,
    pub taint: Taint,
    pub init: Vec<u8>,
}

/// One entry of the trusted-library (T) interface.  These signatures are
/// trusted: the loader installs a wrapper for each and the verifier uses the
/// declared taints when checking calls into T.
#[derive(Debug, Clone)]
pub struct ExternSpec {
    pub name: String,
    pub param_taints: Vec<Taint>,
    pub param_pointee_taints: Vec<Taint>,
    pub param_is_pointer: Vec<bool>,
    pub ret_taint: Taint,
    pub has_ret_value: bool,
}

impl ExternSpec {
    /// The taints the four argument registers must have at a call to this
    /// extern (missing arguments are conservatively private).
    pub fn arg_reg_taints(&self) -> [Taint; 4] {
        crate::magic::pad_arg_taints(&self.param_taints)
    }
}

/// The structured program form.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub name: String,
    pub insts: Vec<MInst>,
    pub functions: Vec<FuncSym>,
    pub globals: Vec<GlobalSpec>,
    pub externs: Vec<ExternSpec>,
    /// Index (into `functions`) of the entry function (`main`).
    pub entry_function: usize,
    /// Magic prefixes chosen at link time (also present without CFI so the
    /// field is always meaningful; unused in that case).
    pub prefixes: MagicPrefixes,
    /// Scheme this program was instrumented for.
    pub scheme: Scheme,
    /// Whether taint-aware CFI instrumentation is present.
    pub cfi: bool,
    /// Whether U and T memories are separated (stack switching on T calls).
    pub separate_trusted_memory: bool,
    /// Whether public and private data get separate stacks.
    pub split_stacks: bool,
}

impl Program {
    /// Word offset of each instruction, computed from the fixed encoding
    /// lengths.
    pub fn word_offsets(&self) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(self.insts.len());
        let mut w = 0u32;
        for inst in &self.insts {
            offsets.push(w);
            w += encode::encoded_len(inst);
        }
        offsets
    }

    /// Total number of code words.
    pub fn code_words(&self) -> u32 {
        self.insts.iter().map(encode::encoded_len).sum()
    }

    pub fn function(&self, name: &str) -> Option<&FuncSym> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Encode into a binary.
    pub fn encode(&self) -> Binary {
        encode::encode_program(self)
    }
}

/// Load-time metadata carried alongside the code words.
#[derive(Debug, Clone, Default)]
pub struct BinaryHeader {
    pub name: String,
    pub globals: Vec<GlobalSpec>,
    pub externs: Vec<ExternSpec>,
    /// Word index of the program entry point.
    pub entry_word: u32,
    pub prefixes: MagicPrefixes,
    pub scheme: Scheme,
    pub cfi: bool,
    pub separate_trusted_memory: bool,
    pub split_stacks: bool,
    /// Function symbols (names + entry words).  Used by the loader and by
    /// diagnostics; ConfVerify re-derives procedure boundaries from the magic
    /// words instead of trusting this table.
    pub functions: Vec<FuncSym>,
}

impl Default for MagicPrefixes {
    fn default() -> Self {
        MagicPrefixes::test_defaults()
    }
}

/// The encoded binary: flat code words plus the header.
#[derive(Debug, Clone)]
pub struct Binary {
    pub words: Vec<u64>,
    pub header: BinaryHeader,
}

impl Binary {
    /// Decode back into instructions (word offset, instruction) pairs.
    pub fn decode(&self) -> Result<Vec<(u32, MInst)>, encode::DecodeError> {
        encode::decode_words(&self.words, &self.header.prefixes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::MInst;
    use crate::reg::Reg;

    #[test]
    fn word_offsets_account_for_magic_words() {
        let prefixes = MagicPrefixes::test_defaults();
        let magic = prefixes.call_word([Taint::Private; 4], Taint::Private);
        let prog = Program {
            insts: vec![
                MInst::MagicWord { value: magic },
                MInst::MovImm {
                    dst: Reg::Rax,
                    imm: 7,
                },
                MInst::Ret,
            ],
            prefixes,
            ..Default::default()
        };
        let offsets = prog.word_offsets();
        assert_eq!(offsets, vec![0, 1, 3]);
        assert_eq!(prog.code_words(), 5);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Mpx.name(), "mpx");
        assert_eq!(Scheme::Segment.name(), "segment");
        assert_eq!(Scheme::None.name(), "none");
    }
}
