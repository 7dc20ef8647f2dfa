// The assortment example is the paper's running prescriptive-analytics
// scenario (Figure 2 + §2.3.1): pick stock amounts for an assortment that
// maximize profit subject to per-product stock bounds and total shelf
// capacity. Declaring the Stock predicate as a free second-order variable
// and totalProfit as the objective turns the integrity constraints into a
// linear program; re-declaring stock over integers turns it into a MIP.
//
// Run with: go run ./examples/assortment
package main

import (
	"fmt"
	"log"

	"logicblox"
	"logicblox/internal/workload"
)

func main() {
	ws := logicblox.NewWorkspace()
	ws, err := ws.AddBlock("assortment", `
		// Base predicates (Figure 2):
		spacePerProd[p] = v -> Product(p), float(v).
		profitPerProd[p] = v -> Product(p), float(v).
		minStock[p] = v -> Product(p), float(v).
		maxStock[p] = v -> Product(p), float(v).
		maxShelf[] = v -> float[64](v).

		// Derived predicates and rules:
		Stock[p] = v -> Product(p), float(v).
		totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
		totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.

		// Integrity constraints:
		Product(p) -> Stock[p] >= minStock[p].
		Product(p) -> Stock[p] <= maxStock[p].
		totalShelf[] = u, maxShelf[] = v -> u <= v.

		// Prescriptive analytics (§2.3.1):
		lang:solve:variable(`+"`Stock"+`).
		lang:solve:max(`+"`totalProfit"+`).`)
	if err != nil {
		log.Fatal(err)
	}

	// Every load checks the constraints, so Product goes first: the
	// per-product attributes are declared over it.
	retail := workload.Generate(workload.Config{Products: 20, Stores: 1, Weeks: 1, Seed: 8})
	rels := retail.Relations()
	for _, name := range []string{"Product", "spacePerProd", "profitPerProd", "minStock", "maxStock"} {
		ws, err = ws.Load(name, rels[name].Slice())
		if err != nil {
			log.Fatal(err)
		}
	}
	ws, err = ws.Load("maxShelf", []logicblox.Tuple{{logicblox.Float(60)}})
	if err != nil {
		log.Fatal(err)
	}

	// Solve the LP: the engine grounds the constraints over the data,
	// invokes the simplex solver, and populates Stock.
	solved, sol, err := ws.Solve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP optimum: total profit = %.2f\n", sol.Objective)
	shelf, _ := solved.Relation("totalShelf").FuncGet(logicblox.Tuple{})
	fmt.Printf("shelf used: %.2f of 60\n", shelf.AsFloat())
	fmt.Println("stocked products (nonzero):")
	solved.Relation("Stock").ForEach(func(t logicblox.Tuple) bool {
		if t[1].AsFloat() > 0.001 {
			fmt.Printf("  %-10s %.2f units\n", t[0].AsString(), t[1].AsFloat())
		}
		return true
	})

	// §2.3.1: "If the stock predicate is now defined to be a mapping from
	// products to integers, LogicBlox will detect the change and
	// reformulate the problem so that a MIP solver is invoked."
	wsInt, err := ws.AddBlock("integral", "lang:solve:integer(`Stock).")
	if err != nil {
		log.Fatal(err)
	}
	solvedInt, solInt, err := wsInt.Solve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMIP optimum (integer stock): total profit = %.2f\n", solInt.Objective)
	fractional := 0
	solvedInt.Relation("Stock").ForEach(func(t logicblox.Tuple) bool {
		if t[1].Kind() != logicblox.Int(0).Kind() {
			fractional++
		}
		return true
	})
	fmt.Printf("all %d stock values integral: %v\n",
		solvedInt.Relation("Stock").Len(), fractional == 0)
	if solInt.Objective > sol.Objective+1e-6 {
		log.Fatal("MIP beat the LP relaxation — impossible")
	}
}
