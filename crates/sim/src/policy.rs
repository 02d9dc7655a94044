//! The five prefetch policies of the evaluation (Figures 4–7).

/// Prefetching policy for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Original program, hardware prefetching off — the paper's baseline
    /// for every experiment (§VII).
    Baseline,
    /// Hardware prefetching on (the machine's preset), no software
    /// prefetches.
    Hardware,
    /// The MDDLI-filtered software prefetching *without* cache bypassing
    /// ("Software Pref." in Figure 4).
    Software,
    /// Full scheme with non-temporal bypassing ("Soft. Pref.+NT").
    SoftwareNt,
    /// The prior-work stride-centric baseline (§VI-D).
    StrideCentric,
    /// Hardware prefetching *and* the software plan together. The paper
    /// (§VIII-B, confirming Lee et al.) found the combination can hurt
    /// and avoids it; this policy exists to reproduce that observation
    /// (see the `ablations` binary) and is not part of the figure set.
    Combined,
}

impl Policy {
    /// The five policies of the paper's figures (excludes the
    /// [`Combined`](Policy::Combined) ablation).
    pub fn all() -> [Policy; 5] {
        [
            Policy::Baseline,
            Policy::Hardware,
            Policy::Software,
            Policy::SoftwareNt,
            Policy::StrideCentric,
        ]
    }

    /// Figure-legend name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Baseline => "Baseline",
            Policy::Hardware => "Hardware Pref.",
            Policy::Software => "Software Pref.",
            Policy::SoftwareNt => "Soft. Pref.+NT",
            Policy::StrideCentric => "Stride-centric",
            Policy::Combined => "HW+SW combined",
        }
    }

    /// Does this policy run the machine's hardware prefetcher? (The
    /// paper's figures never combine hardware and software prefetching —
    /// Lee et al. and the authors' own experiments found the combination
    /// hurts, §VIII-B; [`Policy::Combined`] reproduces that finding.)
    pub fn uses_hardware(&self) -> bool {
        matches!(self, Policy::Hardware | Policy::Combined)
    }

    /// Does this policy apply a software prefetch plan?
    pub fn uses_software(&self) -> bool {
        matches!(
            self,
            Policy::Software | Policy::SoftwareNt | Policy::StrideCentric | Policy::Combined
        )
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusivity_of_mechanisms_in_the_figure_set() {
        for p in Policy::all() {
            assert!(
                !(p.uses_hardware() && p.uses_software()),
                "{p}: the figures never combine HW and SW prefetching"
            );
        }
        assert!(!Policy::Baseline.uses_hardware());
        assert!(!Policy::Baseline.uses_software());
        assert!(Policy::Hardware.uses_hardware());
        assert!(Policy::SoftwareNt.uses_software());
        // The ablation policy is the one exception, outside the figure set.
        assert!(Policy::Combined.uses_hardware() && Policy::Combined.uses_software());
        assert!(!Policy::all().contains(&Policy::Combined));
    }

    #[test]
    fn names_match_figures() {
        assert_eq!(Policy::SoftwareNt.to_string(), "Soft. Pref.+NT");
        assert_eq!(Policy::all().len(), 5);
    }
}
