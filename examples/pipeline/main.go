// Pipeline visualization on the c62x VLIW model: single-step the simulator
// and print the occupancy of the paper's fetch pipeline (PG PS PW PR DP)
// and execute pipeline (DC E1..E5) cycle by cycle, showing packet flow, a
// multicycle-NOP stall and the 5 branch delay slots. A VCD waveform trace
// of the same run is written alongside (viewable in GTKWave).
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"golisa"
	"golisa/internal/vcd"
)

// packet renders one full-rate fetch packet (8 words, one execute packet).
func packet(insns ...string) string {
	var sb strings.Builder
	for _, in := range insns {
		sb.WriteString(in + "\n")
	}
	for i := len(insns); i < 8; i++ {
		sb.WriteString("|| NOP\n")
	}
	return sb.String()
}

func main() {
	machine, err := golisa.LoadBuiltin("c62x")
	if err != nil {
		log.Fatal(err)
	}

	program := packet("MVK .S1 A1, 11") +
		packet("NOP 2") + // multicycle NOP: dispatch stalls 2 extra cycles
		packet("MVK .S1 A2, 22", "|| MPY .M1 A3, A1, A1") +
		packet("B .S1 56") + // 5 delay-slot packets, then the target
		packet("MVK .S1 A4, 44") +
		packet("NOP") +
		packet("IDLE") + // target at word 56
		packet("NOP") + packet("NOP")

	sim, _, err := machine.AssembleAndLoad(program, golisa.Compiled)
	if err != nil {
		log.Fatal(err)
	}

	tracePath := filepath.Join(os.TempDir(), "golisa-c62x.vcd")
	traceFile, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	defer traceFile.Close()
	w := vcd.New(traceFile, sim.S, sim.Pipes())
	w.Header("c62x")
	sim.SetObserver(w)

	fetch, execute := sim.Pipes()[0], sim.Pipes()[1]
	fmt.Println("cycle  PG PS PW PR DP | DC E1 E2 E3 E4 E5   events")
	for cycle := 0; cycle < 24 && !sim.Halted(); cycle++ {
		before := sim.Profile()
		if err := sim.RunStep(); err != nil {
			log.Fatal(err)
		}
		after := sim.Profile()

		var events []string
		for _, op := range []string{"mvk_s", "mpy_m", "b_s", "nop", "idle"} {
			if d := after.Execs[op] - before.Execs[op]; d > 0 {
				events = append(events, fmt.Sprintf("%s×%d", op, d))
			}
		}
		mc, _ := sim.Scalar("multicycle_nop")
		if mc.Uint() > 0 {
			events = append(events, fmt.Sprintf("stall(%d)", mc.Uint()))
		}

		fmt.Printf("%5d  %s | %s   %s\n", cycle,
			occupancy(fetch.Occupancy()), occupancy(execute.Occupancy()),
			strings.Join(events, " "))
	}

	a1, _ := sim.Mem("A", 1)
	a2, _ := sim.Mem("A", 2)
	a3, _ := sim.Mem("A", 3)
	a4, _ := sim.Mem("A", 4)
	fmt.Printf("\nA1=%d A2=%d A3=%d (11*11) A4=%d\n", a1.Int(), a2.Int(), a3.Int(), a4.Int())
	fmt.Printf("VCD trace written to %s\n", tracePath)
}

func occupancy(occ []bool) string {
	cells := make([]string, len(occ))
	for i, o := range occ {
		if o {
			cells[i] = "##"
		} else {
			cells[i] = "--"
		}
	}
	return strings.Join(cells, " ")
}
