//! The loader (Section 6): set up the partitioned address space, relocate
//! globals into their regions, initialise heaps and stacks, set the bounds /
//! segment registers, and prepare the entry point.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use confllvm_machine::{encoded_len, trap, MInst, MemoryLayout, Program, Taint};

use crate::alloc::{AllocatorKind, Heap};
use crate::cost::CostModel;
use crate::memory::Memory;
use crate::translate::{translate, BlockCache};

/// `Image::proc_of_inst` entry for instructions no function owns (the
/// loader's exit thunks); the profiler renders them as `[runtime]`.
pub const NO_PROC: u32 = u32::MAX;

/// A loading failure.
#[derive(Debug, Clone)]
pub struct LoadError {
    pub message: String,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "load error: {}", self.message)
    }
}

impl std::error::Error for LoadError {}

/// Exit thunks appended by the loader: the address the initial return
/// address points at.  There is one per return-register taint so the CFI
/// return check of the entry function always finds a matching magic word.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExitThunks {
    pub public_ret: u32,
    pub private_ret: u32,
}

/// A loaded program image: decoded instructions (with the loader's exit
/// thunks appended), address-translation tables and the memory layout.
#[derive(Debug, Clone)]
pub struct Image {
    pub insts: Vec<MInst>,
    /// Code word offset of each instruction.
    pub word_of: Vec<u32>,
    /// Reverse map: code word offset -> instruction index.
    pub word_to_inst: HashMap<u32, usize>,
    /// Raw code words (read by `LoadCode`).
    pub code_words: Vec<u64>,
    pub layout: MemoryLayout,
    /// Absolute address of each global, in program order.
    pub global_addrs: Vec<u64>,
    pub exit_thunks: ExitThunks,
    /// Copy of the program-level metadata.
    pub prefixes: confllvm_machine::MagicPrefixes,
    pub cfi: bool,
    pub scheme: confllvm_machine::Scheme,
    pub split_stacks: bool,
    pub separate_trusted_memory: bool,
    pub externs: Vec<confllvm_machine::ExternSpec>,
    pub functions: Vec<confllvm_machine::FuncSym>,
    pub entry_function: usize,
    /// Index into `functions` of the procedure owning each instruction
    /// ([`NO_PROC`] for the appended exit thunks) — the sampling profiler's
    /// frame attribution.
    pub proc_of_inst: Vec<u32>,
    /// Interned `&'static` copies of the function names, built on first
    /// profiled run: profile frames carry program symbols, never runtime
    /// `World` bytes.
    proc_names: OnceLock<Vec<&'static str>>,
    /// Basic-block translation of `insts`, built lazily on first block-engine
    /// run and then shared — the image sits behind an `Arc`, so every
    /// CoW-forked session dispatches over the same translation.
    block_cache: OnceLock<Arc<BlockCache>>,
}

impl Image {
    pub fn function(&self, name: &str) -> Option<&confllvm_machine::FuncSym> {
        self.functions.iter().find(|f| f.name == name)
    }

    pub fn fs_base(&self) -> u64 {
        self.layout.fs_base()
    }

    pub fn gs_base(&self) -> u64 {
        self.layout.gs_base()
    }

    pub fn bnd0(&self) -> (u64, u64) {
        self.layout.bnd0()
    }

    pub fn bnd1(&self) -> (u64, u64) {
        self.layout.bnd1()
    }

    /// The image's shared basic-block translation, built on first use with
    /// `cost` folded into the per-block static sums.  Returns `None` when a
    /// later caller runs under a *different* cost model than the one the
    /// cache was built with — the caller then falls back to the legacy
    /// interpreter rather than mis-charging (in practice every session of a
    /// service shares one cost model).
    pub(crate) fn block_cache(&self, cost: CostModel) -> Option<Arc<BlockCache>> {
        let cache = self.block_cache.get_or_init(|| {
            let mut span = confllvm_obs::recorder().span("vm", "vm.translate");
            let cache = translate(self, cost);
            span.attr("blocks", cache.blocks.len());
            span.attr("insts", self.insts.len());
            Arc::new(cache)
        });
        (cache.cost == cost).then(|| Arc::clone(cache))
    }

    /// Function index → interned `&'static` name, index-aligned with
    /// `functions` — the only strings a profile frame may carry.
    pub fn proc_names(&self) -> &[&'static str] {
        self.proc_names.get_or_init(|| {
            self.functions
                .iter()
                .map(|f| confllvm_obs::prof::intern(&f.name))
                .collect()
        })
    }
}

/// The result of loading: the image plus initialised memory and heaps.
pub struct Loaded {
    pub image: Image,
    pub memory: Memory,
    pub pub_heap: Heap,
    pub priv_heap: Heap,
}

/// Load a linked program.
pub fn load(program: &Program, allocator: AllocatorKind) -> Result<Loaded, LoadError> {
    let layout = MemoryLayout::new(
        program.scheme,
        program.split_stacks,
        program.separate_trusted_memory,
    );

    // --- code image ---------------------------------------------------------
    let mut insts = program.insts.clone();
    // Append the exit thunks: where `main`'s (or any started function's)
    // final return lands.  With CFI the thunk starts with a matching
    // return-site magic word; execution then reaches the EXIT trap.
    let mut exit_thunks = ExitThunks::default();
    {
        let add_thunk = |ret: Taint, insts: &mut Vec<MInst>| -> u32 {
            let word: u32 = insts.iter().map(encoded_len).sum();
            if program.cfi {
                insts.push(MInst::MagicWord {
                    value: program.prefixes.ret_word(ret),
                });
            }
            insts.push(MInst::Trap { code: trap::EXIT });
            word
        };
        exit_thunks.public_ret = add_thunk(Taint::Public, &mut insts);
        exit_thunks.private_ret = add_thunk(Taint::Private, &mut insts);
    }

    let mut word_of = Vec::with_capacity(insts.len());
    let mut word_to_inst = HashMap::new();
    let mut code_words = Vec::new();
    let mut w = 0u32;
    for (i, inst) in insts.iter().enumerate() {
        word_of.push(w);
        word_to_inst.insert(w, i);
        code_words.extend_from_slice(&confllvm_machine::encode_inst(inst));
        w += encoded_len(inst);
    }

    // --- procedure map ------------------------------------------------------
    // Who owns each instruction, for the profiler: functions sorted by entry
    // word own everything up to the next entry; the appended exit thunks
    // belong to no function.
    let user_insts = program.insts.len();
    let mut entries: Vec<(u32, u32)> = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.entry_word, i as u32))
        .collect();
    entries.sort_unstable();
    let proc_of_inst: Vec<u32> = word_of
        .iter()
        .enumerate()
        .map(|(i, w)| {
            if i >= user_insts {
                return NO_PROC;
            }
            match entries.binary_search_by_key(w, |e| e.0) {
                Ok(k) => entries[k].1,
                Err(0) => NO_PROC,
                Err(k) => entries[k - 1].1,
            }
        })
        .collect();

    // --- memory --------------------------------------------------------------
    let mut memory = Memory::new();
    memory.map_range(layout.public_base, layout.public_size);
    if layout.private_base != layout.public_base {
        memory.map_range(layout.private_base, layout.private_size);
    }
    memory.map_range(layout.trusted_base, layout.trusted_size);

    // --- globals --------------------------------------------------------------
    // Globals are relocated into the region matching their taint (Section 6).
    let single_region = layout.private_base == layout.public_base;
    let mut pub_cursor = layout.public_globals_base();
    let mut priv_cursor = if single_region {
        // Single-region baselines: private globals follow the public ones.
        layout.public_globals_base() + (4 << 20)
    } else {
        layout.private_globals_base()
    };
    let mut global_addrs = Vec::with_capacity(program.globals.len());
    for g in &program.globals {
        // Private globals always use the private cursor; in the
        // single-region baselines it was initialised above to a bump area
        // past the public globals rather than a separate region.
        let cursor = if g.taint == Taint::Private {
            &mut priv_cursor
        } else {
            &mut pub_cursor
        };
        let addr = *cursor;
        *cursor += g.size.div_ceil(16) * 16;
        if !g.init.is_empty() {
            memory.write_bytes(addr, &g.init).map_err(|e| LoadError {
                message: format!("initialising global `{}`: {e}", g.name),
            })?;
        }
        global_addrs.push(addr);
    }

    // --- heaps -----------------------------------------------------------------
    let (pub_heap, priv_heap) = if single_region {
        // Split the single heap area in two halves.
        let half = layout.heap_size / 2;
        (
            Heap::new(allocator, layout.public_heap_base(), half),
            Heap::new(allocator, layout.public_heap_base() + half, half),
        )
    } else {
        (
            Heap::new(allocator, layout.public_heap_base(), layout.heap_size),
            Heap::new(allocator, layout.private_heap_base(), layout.heap_size),
        )
    };

    let image = Image {
        insts,
        word_of,
        word_to_inst,
        code_words,
        layout,
        global_addrs,
        exit_thunks,
        prefixes: program.prefixes,
        cfi: program.cfi,
        scheme: program.scheme,
        split_stacks: program.split_stacks,
        separate_trusted_memory: program.separate_trusted_memory,
        externs: program.externs.clone(),
        functions: program.functions.clone(),
        entry_function: program.entry_function,
        proc_of_inst,
        proc_names: OnceLock::new(),
        block_cache: OnceLock::new(),
    };
    Ok(Loaded {
        image,
        memory,
        pub_heap,
        priv_heap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_machine::program::{FuncSym, GlobalSpec};
    use confllvm_machine::{MagicPrefixes, Reg, Scheme};

    fn tiny_program() -> Program {
        Program {
            name: "tiny".into(),
            insts: vec![
                MInst::MovImm {
                    dst: Reg::Rax,
                    imm: 7,
                },
                MInst::Ret,
            ],
            functions: vec![FuncSym {
                name: "main".into(),
                magic_word: None,
                entry_word: 0,
                arg_taints: [Taint::Private; 4],
                ret_taint: Taint::Public,
            }],
            globals: vec![
                GlobalSpec {
                    name: "pub_g".into(),
                    size: 8,
                    taint: Taint::Public,
                    init: 42i64.to_le_bytes().to_vec(),
                },
                GlobalSpec {
                    name: "priv_g".into(),
                    size: 8,
                    taint: Taint::Private,
                    init: vec![],
                },
            ],
            externs: vec![],
            entry_function: 0,
            prefixes: MagicPrefixes::test_defaults(),
            scheme: Scheme::Mpx,
            cfi: false,
            separate_trusted_memory: true,
            split_stacks: true,
        }
    }

    #[test]
    fn globals_are_relocated_into_their_regions() {
        let loaded = load(&tiny_program(), AllocatorKind::ConfBins).unwrap();
        let l = &loaded.image.layout;
        assert!(l.in_public(loaded.image.global_addrs[0], 8));
        assert!(l.in_private(loaded.image.global_addrs[1], 8));
        let mut mem = loaded.memory;
        assert_eq!(mem.read(loaded.image.global_addrs[0], 8).unwrap(), 42);
    }

    #[test]
    fn guard_regions_are_unmapped() {
        let loaded = load(&tiny_program(), AllocatorKind::ConfBins).unwrap();
        let l = loaded.image.layout;
        let mut mem = loaded.memory;
        // Just past the end of the public region (inside the private region
        // for MPX these are adjacent, so probe below the public base).
        assert!(mem.read(l.public_base - 8, 8).is_err());
        assert!(mem.read(l.private_base + l.private_size + 8, 8).is_err());
    }

    #[test]
    fn exit_thunks_are_appended_and_indexed() {
        let loaded = load(&tiny_program(), AllocatorKind::SystemBump).unwrap();
        let img = &loaded.image;
        assert!(img.word_to_inst.contains_key(&img.exit_thunks.public_ret));
        assert!(img.word_to_inst.contains_key(&img.exit_thunks.private_ret));
        let idx = img.word_to_inst[&img.exit_thunks.public_ret];
        assert!(matches!(img.insts[idx], MInst::Trap { code } if code == trap::EXIT));
    }

    #[test]
    fn heaps_live_in_their_regions() {
        let loaded = load(&tiny_program(), AllocatorKind::ConfBins).unwrap();
        let l = loaded.image.layout;
        let mut pub_heap = loaded.pub_heap;
        let mut priv_heap = loaded.priv_heap;
        assert!(l.in_public(pub_heap.alloc(64).unwrap(), 64));
        assert!(l.in_private(priv_heap.alloc(64).unwrap(), 64));
    }
}
