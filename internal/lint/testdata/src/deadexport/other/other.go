package other
