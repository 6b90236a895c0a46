#include "textflag.h"

// func cpuRelax()
TEXT ·cpuRelax(SB), NOSPLIT, $0-0
	PAUSE
	RET
