//! Submitting a program stage by stage.
//!
//! [`submit`] is the call sequence `Registry::submit_source` makes —
//! `parse → Sema::analyze → lower → PassManager::run → infer →
//! compile_module_with_entry → Registry::submit_program` — followed by
//! `promote`, with a benchmark span around every call.  [`check_active`]
//! then verifies, outside the timed submission, that the version is
//! `Active` and that what the registry holds encodes to the same words as
//! the one-call `compile()` of the same source.

use confllvm_core::codegen::compile_module_with_entry;
use confllvm_core::ir::{infer, lower, InferOptions, PassManager};
use confllvm_core::minic::{parse, Sema};
use confllvm_core::vm::{Vm, VmOptions, World};
use confllvm_core::{compile, CompileOptions, Config};
use confllvm_server::{Registry, SetupSpec, VersionId, VersionState};

use crate::trace::span;

/// One program of a fleet under one configuration.
#[derive(Debug, Clone)]
pub struct Item {
    pub program: &'static str,
    /// Registry name, unique per (program, configuration).
    pub name: String,
    pub source: String,
    pub config: Config,
    pub entry: &'static str,
    pub setup: Option<SetupSpec>,
    /// Code words of the reference `compile()` of the same source.
    pub reference_words: Vec<u64>,
}

impl Item {
    /// Build an item and compile its reference words.
    pub fn new(
        program: &'static str,
        source: String,
        config: Config,
        entry: &'static str,
        setup: Option<SetupSpec>,
    ) -> Result<Item, String> {
        let opts = CompileOptions {
            config,
            entry: entry.to_string(),
            ..Default::default()
        };
        let reference_words = compile(&source, &opts)
            .map_err(|e| format!("{program}/{}: {e}", config.name()))?
            .binary()
            .words;
        Ok(Item {
            program,
            name: format!("{program}/{}", config.name()),
            source,
            config,
            entry,
            setup,
            reference_words,
        })
    }
}

/// Sizes of what one submission compiled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sizes {
    pub ir_insts: u64,
    pub machine_insts: u64,
    pub bound_checks: u64,
    pub code_words: u64,
}

/// Compose, submit and promote `item` into `registry` under operation id
/// `op`.
pub fn submit(registry: &Registry, item: &Item, op: u64) -> Result<(VersionId, Sizes), String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", item.name);
    let ast = {
        let _s = span("minic.parse", op);
        parse(&item.source).map_err(|e| fail("parse", &e))?
    };
    let sema = {
        let _s = span("minic.sema", op);
        Sema::analyze(&ast).map_err(|e| fail("sema", &e))?
    };
    let mut module = {
        let _s = span("ir.lower", op);
        lower(&ast, &sema, "u_module").map_err(|e| fail("lower", &e))?
    };
    {
        let _s = span("ir.passes", op);
        PassManager::parse(item.config.ir_pipeline())
            .map_err(|e| fail("pipeline", &e))?
            .run(&mut module);
    }
    let ir_insts = module.functions.iter().map(|f| f.inst_count() as u64).sum();
    {
        let _s = span("ir.taint", op);
        infer(&mut module, InferOptions::default())
            .map_err(|e| fail("taint", &format!("{} error(s)", e.len())))?;
    }
    let (program, report) = {
        let _s = span("codegen", op);
        compile_module_with_entry(&module, &item.config.codegen_options(), item.entry)
            .map_err(|e| fail("codegen", &e))?
    };
    let version = {
        let _s = span("server.submit", op);
        registry
            .submit_program(&item.name, program, item.config, item.setup.clone())
            .map_err(|e| fail("submit", &e))?
    };
    {
        let _s = span("server.promote", op);
        registry.promote(version).map_err(|e| fail("promote", &e))?;
    }
    let sizes = Sizes {
        ir_insts,
        machine_insts: report.instructions as u64,
        bound_checks: report.bound_checks as u64,
        code_words: report.code_words as u64,
    };
    Ok((version, sizes))
}

/// Check that `version` of `item` is `Active`, that the program it serves
/// encodes to the reference words and that it loads into a VM.
pub fn check_active(registry: &Registry, item: &Item, version: VersionId, op: u64) -> bool {
    let _s = span("bench.check", op);
    if registry.version_state(version) != Some(VersionState::Active) {
        return false;
    }
    let Some(binary) = registry.binary_id(&item.name) else {
        return false;
    };
    let Some((active, service)) = registry.checkout_active(binary) else {
        return false;
    };
    let words_match = {
        let _s = span("machine.encode", op);
        service.program.encode().words == item.reference_words
    };
    let loads = {
        let _s = span("vm.load", op);
        let opts = VmOptions {
            allocator: item.config.allocator(),
            ..Default::default()
        };
        Vm::new(&service.program, opts, World::new()).is_ok()
    };
    registry.release(active);
    active == version && words_match && loads
}

/// Submit, promote and check one item, the set-up path every workload
/// shares.
pub fn deploy(registry: &Registry, item: &Item) -> Result<VersionId, String> {
    let (version, _) = submit(registry, item, 0)?;
    if !check_active(registry, item, version, 0) {
        return Err(format!(
            "{}: the deployed version failed its checks",
            item.name
        ));
    }
    Ok(version)
}
