//! One module per regenerated figure (DESIGN.md §12 maps each to the
//! paper). Shared parameter sweeps live in [`sweeps`] and are memoized, so
//! figures that plot different metrics of the same experiment (e.g.
//! Figures 14 and 15) run it once.

pub mod sweeps;

pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod fig25;
