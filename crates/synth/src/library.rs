//! The gate library: areas used for technology mapping.
//!
//! The paper reports areas "in units" of its standard-cell library and
//! never publishes the cells; this library substitutes areas roughly
//! proportional to transistor counts. Experiments compare *ratios*
//! between implementations, which are library-stable.

/// Combinational and sequential primitives available to the mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateType {
    /// Inverter.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input Muller C-element (sequential).
    C2,
}

impl GateType {
    /// Number of logic inputs.
    pub fn arity(self) -> usize {
        match self {
            GateType::Inv => 1,
            _ => 2,
        }
    }

    /// True for state-holding gates.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateType::C2)
    }
}

/// Area numbers for every primitive.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Area of an inverter.
    pub inv_area: f64,
    /// Area of a 2-input AND/OR.
    pub and2_area: f64,
    /// Area of a 2-input C-element.
    pub c2_area: f64,
    /// Area of the set/reset latch core of a generalized C-element.
    pub gc_core_area: f64,
}

impl Library {
    /// Area of one gate.
    pub fn area(&self, g: GateType) -> f64 {
        match g {
            GateType::Inv => self.inv_area,
            GateType::And2 | GateType::Or2 => self.and2_area,
            GateType::C2 => self.c2_area,
        }
    }
}

impl Default for Library {
    /// The default library: inverter 16, 2-input gates 32, C-element 48,
    /// gC latch core 32 — areas in the same spirit as the paper's units
    /// (wire = 0). Delays are not the library's: see `reshuffle-timing`
    /// for the event-level models.
    fn default() -> Self {
        Library {
            inv_area: 16.0,
            and2_area: 32.0,
            c2_area: 48.0,
            gc_core_area: 32.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let lib = Library::default();
        assert_eq!(lib.area(GateType::Inv), 16.0);
        assert_eq!(lib.area(GateType::And2), lib.area(GateType::Or2));
        assert!(lib.area(GateType::C2) > lib.area(GateType::And2));
        assert!(GateType::C2.is_sequential());
        assert!(!GateType::And2.is_sequential());
        assert_eq!(GateType::Inv.arity(), 1);
        assert_eq!(GateType::C2.arity(), 2);
    }
}
