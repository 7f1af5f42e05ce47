        .text
main:   li   $s0, 12
loop:   jal  show
        addi $s0, $s0, -1
        li   $t3, 6
        bne  $s0, $t3, next
        la   $t0, newins
        lw   $t1, 0($t0)
        la   $t2, show
        sw   $t1, 0($t2)
next:   bgtz $s0, loop
        li   $v0, 10
        syscall
show:   li   $a0, 7
        li   $v0, 1
        syscall
        jr   $ra
newins: li   $a0, 42
