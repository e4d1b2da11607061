package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// LedgerOrder checks the "ledger v1" recovery protocol (PR 3) at vet
// time. Two invariants:
//
//  1. Order: a (*fault.Ledger).Reclaim call must have a checkpoint
//     append — a Deliver call, direct or through a summarized helper
//     or local closure, or a call handed an appending closure as a
//     callback — on some CFG path before it. A reclaim with
//     no possible preceding append means a failover successor could
//     replay a ledger that never recorded the data being
//     redistributed, breaking exactly-once redistribution.
//  2. Codec: the protocol header and replica lines must round-trip
//     through (*fault.Ledger).Encode / fault.DecodeLedger; a
//     hand-rolled "ledger v1" string elsewhere forks the codec and
//     silently diverges when the version bumps.
//
// CanPrecede (reachability) rather than strict dominance is the right
// ordering relation here: the real recovery paths append inside
// conditional loops (per-rank delivery) before conditionally
// reclaiming, which dominance would wrongly reject.
var LedgerOrder = &Analyzer{
	Name: "ledgerorder",
	Doc: "ledger protocol: every Reclaim needs a checkpoint append (Deliver) on a " +
		"preceding path, and ledger v1 codec strings must live in Encode/DecodeLedger only",
	Run: runLedgerOrder,
}

func runLedgerOrder(pass *Pass) error {
	sum := pass.facts.summary()
	for _, file := range pass.Files {
		if fname := pass.Fset.Position(file.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch v := n.(type) {
			case *ast.FuncDecl:
				body = v.Body
			case *ast.FuncLit:
				body = v.Body
			}
			if body != nil {
				checkReclaimOrder(pass, sum, body)
			}
			return true
		})
		checkCodecStrings(pass, file)
	}
	return nil
}

// checkReclaimOrder verifies invariant 1 on one function body.
func checkReclaimOrder(pass *Pass, sum *pkgSummary, body *ast.BlockStmt) {
	type site struct{ r ref }
	var appends, reclaims []site
	var reclaimCalls []*ast.CallExpr

	g := pass.facts.cfg(body)
	walkOwnBody(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		r, ok := g.RefAt(call.Pos())
		if !ok {
			return
		}
		fn := calleeFunc(pass.TypesInfo, call)
		switch {
		case isLedgerMethod(fn, "Deliver"):
			appends = append(appends, site{r})
		case isLedgerMethod(fn, "Reclaim"):
			reclaims = append(reclaims, site{r})
			reclaimCalls = append(reclaimCalls, call)
		default:
			if cf := sum.calleeFacts(call); (cf != nil && cf.appendsLedger) || sum.passesAppender(call) {
				appends = append(appends, site{r})
			}
		}
	})

	for i, rc := range reclaims {
		ok := false
		for _, a := range appends {
			if g.CanPrecede(a.r, rc.r) {
				ok = true
				break
			}
		}
		if !ok {
			pass.Reportf(reclaimCalls[i].Pos(),
				"Reclaim with no checkpoint append (Deliver) on any preceding path: a failover successor would replay a ledger that never recorded this data, breaking exactly-once redistribution")
		}
	}
}

// ledgerHeader is the protocol marker the codec check looks for.
// (Built by concatenation so this analyzer's own source does not trip
// the string scan when scatterlint dogfoods itself.)
var ledgerHeader = "ledger " + "v1"

// codecExemptFuncs are the fault-package functions allowed to spell
// the protocol strings: the codec itself.
var codecExemptFuncs = map[string]bool{
	"Encode":       true,
	"DecodeLedger": true,
}

// checkCodecStrings verifies invariant 2 on one file.
func checkCodecStrings(pass *Pass, file *ast.File) {
	if pass.Pkg.Path() == "repro/internal/lint" {
		return // the analyzers themselves describe the protocol strings
	}
	inFault := pass.Pkg.Path() == faultPkgPath
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && inFault && codecExemptFuncs[fd.Name.Name] {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if strings.Contains(s, ledgerHeader) || strings.Contains(s, "replica %d") {
				pass.Reportf(lit.Pos(),
					"hand-rolled ledger codec string: serialize through (*fault.Ledger).Encode and fault.DecodeLedger so the protocol version stays in one place and writes round-trip")
			}
			return true
		})
	}
}
