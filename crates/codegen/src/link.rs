//! Linking: assemble compiled functions into one program, resolve labels and
//! call targets to code-word offsets, choose the magic prefixes post-link and
//! patch every magic-dependent word (Section 6).

use std::collections::HashMap;

use confllvm_ir::Module;
use confllvm_machine::program::{ExternSpec, FuncSym, GlobalSpec};
use confllvm_machine::{encoded_len, find_unique_prefixes, MInst, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::isel::{compile_function, CodegenError, MagicPatch};
use crate::options::CodegenOptions;

/// Statistics about the produced code, used by the evaluation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodegenReport {
    pub functions: usize,
    pub instructions: usize,
    pub code_words: u32,
    /// Bound checks remaining in the emitted code after the machine passes.
    pub bound_checks: usize,
    pub cfi_checks: usize,
    pub magic_words: usize,
    /// Check pairs removed by the machine pipeline (skip-stack, coalescing
    /// and cross-block elimination together).
    pub checks_eliminated: usize,
    /// Check pairs inserted into loop preheaders by `mpx-hoist-checks`.
    pub checks_hoisted: usize,
    /// How many candidate prefixes were tried before a unique one was found.
    pub prefix_attempts: usize,
}

/// Compile and link a whole IR module into a machine [`Program`].
pub fn compile_module(
    module: &Module,
    opts: &CodegenOptions,
) -> Result<(Program, CodegenReport), CodegenError> {
    compile_module_with_entry(module, opts, "main")
}

/// Like [`compile_module`] but with an explicit entry function name.
pub fn compile_module_with_entry(
    module: &Module,
    opts: &CodegenOptions,
    entry: &str,
) -> Result<(Program, CodegenReport), CodegenError> {
    let func_index: HashMap<String, usize> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();
    if !func_index.contains_key(entry) {
        return Err(CodegenError {
            message: format!("entry function `{entry}` is not defined"),
        });
    }

    // Module-level compile span (closes when this function returns, so it
    // parents the per-pass spans the pipeline records on this thread).
    let mut obs_span = confllvm_obs::recorder().span("compiler", "codegen.module");

    // 1. Compile every function and run the machine pass pipeline over it.
    let pipeline = crate::mpass::MachinePipeline::parse(&opts.passes)?;
    let mut pass_report = crate::mpass::MPipelineReport::default();
    let mut compiled = Vec::new();
    for f in &module.functions {
        let mut cf = compile_function(module, f, opts, &func_index)?;
        let frame = cf.frame.clone();
        let mut cx = crate::mpass::MachineCtx::new(module, f, &frame, opts);
        pass_report.merge(&pipeline.run(&mut cf, &mut cx));
        cf.bound_checks = cf
            .insts
            .iter()
            .filter(|i| matches!(i, MInst::BndCheck { .. }))
            .count();
        compiled.push(cf);
    }

    // 2. Concatenate, remembering per-function instruction ranges.
    let mut insts: Vec<MInst> = Vec::new();
    let mut patches: Vec<(usize, MagicPatch)> = Vec::new();
    let mut func_ranges: Vec<(usize, usize)> = Vec::new(); // [start, end) inst indices
    for cf in &compiled {
        let start = insts.len();
        for (idx, patch) in &cf.patches {
            patches.push((start + idx, *patch));
        }
        insts.extend(cf.insts.iter().cloned());
        func_ranges.push((start, insts.len()));
    }

    // 3. Word offsets for every instruction.
    let mut word_of: Vec<u32> = Vec::with_capacity(insts.len());
    let mut w = 0u32;
    for inst in &insts {
        word_of.push(w);
        w += encoded_len(inst);
    }
    let total_words = w;

    // 4. Function symbols.
    let mut functions = Vec::new();
    for (fi, cf) in compiled.iter().enumerate() {
        let (start, _) = func_ranges[fi];
        let magic_word = if opts.cfi { Some(word_of[start]) } else { None };
        let entry_inst = if opts.cfi { start + 1 } else { start };
        functions.push(FuncSym {
            name: cf.name.clone(),
            magic_word,
            entry_word: word_of[entry_inst],
            arg_taints: cf.arg_taints,
            ret_taint: cf.ret_taint,
        });
    }

    // 5. Resolve jumps (local labels), direct calls and function references.
    let mut resolved = insts.clone();
    for (fi, cf) in compiled.iter().enumerate() {
        let (start, end) = func_ranges[fi];
        let label_word = |label: u32| -> u32 {
            let local_idx = cf.labels[label as usize];
            word_of[start + local_idx]
        };
        for inst in &mut resolved[start..end] {
            match inst {
                MInst::Jmp { target } => *target = label_word(*target),
                MInst::Jcc { target, .. } => *target = label_word(*target),
                MInst::CallDirect { target } => {
                    let callee = *target as usize;
                    *target = functions[callee].entry_word;
                }
                MInst::MovFunc { dst, index } => {
                    // Function pointers point at the callee's magic word when
                    // CFI is on (the indirect-call check reads it and then
                    // skips it), at its entry otherwise.
                    let callee = *index as usize;
                    let word = functions[callee]
                        .magic_word
                        .unwrap_or(functions[callee].entry_word);
                    *inst = MInst::MovImm {
                        dst: *dst,
                        imm: word as i64,
                    };
                }
                _ => {}
            }
        }
    }

    // 6. Choose magic prefixes and patch the magic-dependent words, retrying
    //    (with new random prefixes) in the astronomically unlikely event that
    //    a prefix also appears in an unrelated code word.
    let seed = opts.prefix_seed.unwrap_or(0x5eed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut attempts = 0usize;
    let (final_insts, prefixes) = loop {
        attempts += 1;
        // Candidate prefixes are drawn against the words we have so far
        // (before patching) — exactly the paper's "generate random bit
        // sequences and check for uniqueness" loop.
        let candidate_words: Vec<u64> = {
            let mut ws = Vec::with_capacity(total_words as usize);
            for inst in &resolved {
                ws.extend_from_slice(&confllvm_machine::encode_inst(inst));
            }
            ws
        };
        let prefixes = find_unique_prefixes(&mut rng, &candidate_words);
        let mut patched = resolved.clone();
        for (idx, patch) in &patches {
            match patch {
                MagicPatch::CallMagic { args, ret } => {
                    patched[*idx] = MInst::MagicWord {
                        value: prefixes.call_word(*args, *ret),
                    };
                }
                MagicPatch::RetMagic { ret } => {
                    patched[*idx] = MInst::MagicWord {
                        value: prefixes.ret_word(*ret),
                    };
                }
                MagicPatch::NotCallMagic { args, ret } => {
                    if let MInst::MovImm { imm, .. } = &mut patched[*idx] {
                        *imm = !(prefixes.call_word(*args, *ret)) as i64;
                    }
                }
                MagicPatch::NotRetMagic { ret } => {
                    if let MInst::MovImm { imm, .. } = &mut patched[*idx] {
                        *imm = !(prefixes.ret_word(*ret)) as i64;
                    }
                }
            }
        }
        // Verify uniqueness in the final image: no word other than the magic
        // words themselves may carry either prefix.
        let magic_positions: std::collections::HashSet<u32> = patches
            .iter()
            .filter(|(_, p)| {
                matches!(
                    p,
                    MagicPatch::CallMagic { .. } | MagicPatch::RetMagic { .. }
                )
            })
            .map(|(idx, _)| word_of[*idx])
            .collect();
        let mut ok = true;
        let mut word_idx = 0u32;
        for inst in &patched {
            for &wv in confllvm_machine::encode_inst(inst).iter() {
                let is_magic_pos = magic_positions.contains(&word_idx);
                if !is_magic_pos && (prefixes.is_call_word(wv) || prefixes.is_ret_word(wv)) {
                    ok = false;
                }
                word_idx += 1;
            }
        }
        if ok {
            break (patched, prefixes);
        }
        if attempts > 64 {
            return Err(CodegenError {
                message: "could not find unique magic prefixes".to_string(),
            });
        }
    };

    let entry_function = func_index[entry];
    let globals: Vec<GlobalSpec> = module
        .globals
        .iter()
        .map(|g| GlobalSpec {
            name: g.name.clone(),
            size: g.size,
            taint: g.taint,
            init: g.init.clone(),
        })
        .collect();
    let externs: Vec<ExternSpec> = module
        .externs
        .iter()
        .map(|e| ExternSpec {
            name: e.name.clone(),
            param_taints: e.param_taints.clone(),
            param_pointee_taints: e.param_pointee_taints.clone(),
            param_is_pointer: e.param_is_pointer.clone(),
            ret_taint: e.ret_taint,
            has_ret_value: e.has_ret_value,
        })
        .collect();

    let report = CodegenReport {
        functions: compiled.len(),
        instructions: final_insts.len(),
        code_words: total_words,
        bound_checks: compiled.iter().map(|c| c.bound_checks).sum(),
        cfi_checks: compiled.iter().map(|c| c.cfi_checks).sum(),
        checks_eliminated: pass_report.changes_of("mpx-skip-stack-checks")
            + pass_report.changes_of("mpx-coalesce-checks")
            + pass_report.changes_of("mpx-cross-block-elim"),
        checks_hoisted: pass_report.changes_of("mpx-hoist-checks"),
        magic_words: patches
            .iter()
            .filter(|(_, p)| {
                matches!(
                    p,
                    MagicPatch::CallMagic { .. } | MagicPatch::RetMagic { .. }
                )
            })
            .count(),
        prefix_attempts: attempts,
    };
    if obs_span.active() {
        obs_span.attr("functions", report.functions);
        obs_span.attr("instructions", report.instructions);
        obs_span.attr("bound_checks", report.bound_checks);
        obs_span.attr("checks_eliminated", report.checks_eliminated);
        obs_span.attr("checks_hoisted", report.checks_hoisted);
    }

    let program = Program {
        name: module.name.clone(),
        insts: final_insts,
        functions,
        globals,
        externs,
        entry_function,
        prefixes,
        scheme: opts.scheme,
        cfi: opts.cfi,
        separate_trusted_memory: opts.separate_trusted_memory,
        split_stacks: opts.split_stacks,
    };
    Ok((program, report))
}
