// Package core implements the paper's contribution: process migration
// by copy-on-reference address-space transfer. It provides the
// ExciseProcess and InsertProcess primitives of §3.1 (Core and RIMAS
// context messages), the per-machine MigrationManager of §3.2, and the
// three transfer strategies the evaluation compares — pure-copy,
// resident-set, and pure-IOU — plus the prefetch knob.
package core

import "fmt"

// Strategy selects how the RIMAS (address-space) context message is
// delivered to the new execution site.
type Strategy int

const (
	// PureCopy physically transmits every RealMem byte at migration
	// time (the conventional technique; NoIOUs set on the RIMAS).
	PureCopy Strategy = iota
	// ResidentSet physically transmits the pages resident in physical
	// memory at migration time (a working-set approximation) and passes
	// IOUs for the rest.
	ResidentSet
	// PureIOU passes IOUs for the whole RealMem portion; the local
	// NetMsgServer caches the data and becomes its backer.
	PureIOU
	// PreCopied is Theimer's iterative pre-copy: MigrateTo stages the
	// page contents at the destination while the process runs, so the
	// final handoff's RIMAS carries structure only.
	PreCopied
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case PureCopy:
		return "Copy"
	case ResidentSet:
		return "RS"
	case PureIOU:
		return "IOU"
	case PreCopied:
		return "PreCopy"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all transfer strategies in the paper's comparison
// order.
func Strategies() []Strategy { return []Strategy{PureIOU, ResidentSet, PureCopy} }

// Degrade steps the strategy one rung down the reliability ladder:
// each step sheds residual dependencies at the price of more up-front
// copying, so a migration retried after a failure leans less on the
// flaky network. PureIOU falls back to ResidentSet; everything else
// falls back to PureCopy, which carries no residual dependency at all
// and is the ladder's fixed point.
func Degrade(s Strategy) Strategy {
	switch s {
	case PureIOU:
		return ResidentSet
	default:
		return PureCopy
	}
}

// PrefetchValues are the prefetch amounts evaluated in the paper.
func PrefetchValues() []int { return []int{0, 1, 3, 7, 15} }
