# Sixteen bytes below the top of the address space leave no room for 32:
# the assembler rejects line 7 instead of wrapping the section to 0.
        .text
main:   li   $v0, 10
        syscall
        .data 0xfffffff0
buf:    .space 32
