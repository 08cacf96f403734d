//! FBISA programs: instruction sequences plus block-level metadata.

use crate::instr::Instruction;
use ecnn_model::model::InferenceKind;
use ecnn_tensor::QFormat;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A compiled FBISA program for one (sub-)model.
///
/// The program executes once per image block; the host/DMA streams the input
/// block through `DI` and collects the output block from `DO` (Section 6.1).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Source model name.
    pub name: String,
    /// The instruction sequence, in issue order.
    pub instructions: Vec<Instruction>,
    /// Inference type shared by all instructions.
    pub inference: InferenceKind,
    /// Image-domain input block side streamed through `DI` (pre-unshuffle).
    pub di_side: usize,
    /// Logical channels streamed through `DI`.
    pub di_channels: usize,
    /// Q-format of the `DI` stream.
    pub di_q: QFormat,
    /// Image-domain output block side streamed through `DO` (post-shuffle).
    pub do_side: usize,
    /// Logical channels streamed through `DO`.
    pub do_channels: usize,
    /// Q-format of the `DO` stream.
    pub do_q: QFormat,
    /// Space-to-depth factor applied while streaming `DI` (DnERNet-12ch).
    pub input_unshuffle: Option<usize>,
    /// True when some tensor exceeded the strict 3×512 KB block-buffer
    /// budget and was placed with relaxed capacity (the CV case studies
    /// and SR tails stream through line FIFOs on real hardware).
    pub bb_overflow: bool,
}

impl Program {
    /// Total leaf-modules across all instructions (drives parameter-memory
    /// size and IDU decode time).
    pub fn total_leaf_modules(&self) -> usize {
        self.instructions
            .iter()
            .map(Instruction::leaf_modules)
            .sum()
    }

    /// Sum of per-instruction CIU busy cycles for one block (no pipeline
    /// overlap accounting — see `ecnn-sim` for the pipelined schedule).
    pub fn total_ciu_cycles(&self) -> u64 {
        self.instructions.iter().map(Instruction::ciu_cycles).sum()
    }

    /// DI bytes streamed per block (8-bit samples).
    pub fn di_bytes_per_block(&self) -> usize {
        self.di_side * self.di_side * self.di_channels
    }

    /// DO bytes streamed per block (8-bit samples).
    pub fn do_bytes_per_block(&self) -> usize {
        self.do_side * self.do_side * self.do_channels
    }

    /// Blocks needed to tile a `width × height` *output* image.
    pub fn blocks_for_output(&self, width: usize, height: usize) -> usize {
        width.div_ceil(self.do_side) * height.div_ceil(self.do_side)
    }

    /// Validates all instructions.
    ///
    /// # Errors
    ///
    /// Returns `(instruction index, message)` for the first violation.
    pub fn check(&self) -> Result<(), (usize, String)> {
        for (i, instr) in self.instructions.iter().enumerate() {
            instr.check().map_err(|e| (i, e))?;
            if instr.inference != self.inference {
                return Err((i, "mixed inference kinds".into()));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    /// Renders the paper-style program listing (Fig. 18).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; {} — {} instructions, {} leaf-modules, DI {}x{}x{}ch, DO {}x{}x{}ch",
            self.name,
            self.instructions.len(),
            self.total_leaf_modules(),
            self.di_side,
            self.di_side,
            self.di_channels,
            self.do_side,
            self.do_side,
            self.do_channels,
        )?;
        for (i, instr) in self.instructions.iter().enumerate() {
            writeln!(f, "{i:3}: {instr}")?;
        }
        Ok(())
    }
}
